//! The driver: one process, two threads, two member connections.
//!
//! Thread `server` owns an in-process [`dce_server::Server`] and calls
//! the shipped [`Server::run`]; the calling thread is `clients`, which
//! multiplexes members 1 and 2 — each a full replica (`Engine` behind a
//! reliable `Endpoint`) — over two non-blocking loopback TCP
//! connections, never sleeping more than [`IDLE_SLEEP`]. Only `pub`
//! items of the workspace crates are called; the program is handed the
//! operations of a [`Schedule`] and nothing else.

use crate::schedule::{AdminStep, Edit, EditKind, Schedule};
use crate::trace::{Name, Tracer, NONE};
use crate::Workload;
use dce_core::{CoreError, DocumentId, Engine, Flag, Message};
use dce_document::{Char, CharDocument, Op};
use dce_net::frame::{encode_frame, Frame, FrameDecoder};
use dce_net::reliable::{Endpoint, ReliableConfig};
use dce_obs::{MetricsReport, ObsHandle};
use dce_ot::ids::RequestId;
use dce_policy::{Action, AdminOp, Authorization, DocObject, Right, Subject};
use dce_server::{initial_policy, Server, ServerConfig};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The one document every workload edits.
pub const DOC: DocumentId = DocumentId::ROOT;
const SESSION: u32 = 1;
/// Unsettled ops each member keeps in flight in the closed-loop
/// workloads. 8, because 128 was not repeatable (see README).
pub const WINDOW: usize = 8;
/// Longest the `clients` thread ever sleeps.
pub const IDLE_SLEEP: Duration = Duration::from_micros(50);
/// How long after load stops an op may stay unsettled before it counts
/// as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Redundant grants `revoke` loads into the policy during set-up (§6:
/// "the policy is not optimized").
pub const REDUNDANT_GRANTS: usize = 200;
/// Share of its window a `durable` segment runs before the server is
/// dropped, and after it has recovered.
const DURABLE_PRE: f64 = 0.5;
const DURABLE_POST: f64 = 0.15;

/// What a caller asks of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the input schedule.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Record spans and per-layer timings.
    pub traced: bool,
    /// Where trace files and the durable server's data directory go.
    pub out_dir: PathBuf,
    /// How many independent sessions the run is cut into. Each is set
    /// up afresh and loaded for `seconds / segments`; every reported
    /// number is the median of the per-segment values.
    pub segments: usize,
    /// Test hook: `(when, how long)` the `clients` thread is held still
    /// once during the measured window — a stalled generator.
    pub stall: Option<(Duration, Duration)>,
}

// ---------------------------------------------------------------------
// The server thread.
// ---------------------------------------------------------------------

/// What the server thread reports once it is listening.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its metrics registry (`Server::obs`).
    pub obs: ObsHandle,
    /// Kernel thread id, for `/proc/self/task/<tid>/stat`.
    pub tid: u32,
    /// Wall time of `Server::bind` (recovery included, with a data dir).
    pub bind_s: f64,
}

/// A `server` thread: `Server::bind`, then the shipped `Server::run`
/// until told to stop. Stopping it *drops* the server — nothing is
/// flushed or synced on the way out, which is the point of `durable`.
pub struct ServerHost {
    info: Option<ServerInfo>,
    ready: Receiver<Result<ServerInfo, String>>,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
}

fn thread_id() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().and_then(|n| n.to_str()).and_then(|n| n.parse().ok()))
        .unwrap_or(0)
}

impl ServerHost {
    /// Spawns the thread; binding (and any recovery) happens on it.
    pub fn boot(data_dir: Option<PathBuf>) -> Result<ServerHost, String> {
        let (tx, ready) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("server".into())
            .spawn(move || {
                let cfg = ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    users: 2,
                    data_dir,
                    ..ServerConfig::default()
                };
                let t = Instant::now();
                let bound = Server::bind(cfg).and_then(|s| s.local_addr().map(|a| (s, a)));
                let (mut server, addr) = match bound {
                    Ok(b) => b,
                    Err(e) => {
                        let _ = tx.send(Err(format!("Server::bind: {e}")));
                        return Err(format!("Server::bind: {e}"));
                    }
                };
                let info = ServerInfo {
                    addr,
                    obs: server.obs().clone(),
                    tid: thread_id(),
                    bind_s: t.elapsed().as_secs_f64(),
                };
                let _ = tx.send(Ok(info));
                server.run(flag).map_err(|e| format!("Server::run: {e}"))
            })
            .map_err(|e| format!("spawn server thread: {e}"))?;
        Ok(ServerHost { info: None, ready, shutdown, thread })
    }

    /// The listening server's details, once it has reported them.
    pub fn try_info(&mut self) -> Result<Option<&ServerInfo>, String> {
        if self.info.is_none() {
            match self.ready.try_recv() {
                Ok(info) => self.info = Some(info?),
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => {
                    return Err("server thread died before listening".into())
                }
            }
        }
        Ok(self.info.as_ref())
    }

    /// Blocks until the server listens.
    pub fn info(&mut self) -> Result<&ServerInfo, String> {
        if self.info.is_none() {
            let info = self
                .ready
                .recv_timeout(Duration::from_secs(120))
                .map_err(|e| format!("server never listened: {e}"))??;
            self.info = Some(info);
        }
        Ok(self.info.as_ref().expect("just set"))
    }

    /// Stops the reactor and waits for the thread; the `Server` is
    /// dropped as the thread unwinds, with no shutdown work.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::Relaxed);
        self.thread.join().map_err(|_| "server thread panicked".to_string())?
    }
}

/// `utime + stime` of thread `tid`, in seconds (the kernel's `USER_HZ`
/// is 100 on every Linux this runs on).
pub fn thread_cpu_s(tid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Threads of this process right now (`None` off Linux).
pub fn thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

// ---------------------------------------------------------------------
// Connections.
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
}

/// Connects, `Hello`s as `user` and waits for the `Welcome` (blocking,
/// bounded); the socket is non-blocking from then on.
fn dial(addr: SocketAddr, user: u32) -> Result<Conn, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    stream
        .write_all(&encode_frame(&Frame::<Char>::Hello { session: SESSION, user }))
        .map_err(|e| format!("hello: {e}"))?;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 256];
    loop {
        match decoder.next::<Char>().map_err(|e| format!("bad frame: {e}"))? {
            Some(Frame::Welcome { .. }) => break,
            Some(other) => return Err(format!("expected Welcome, got {other:?}")),
            None => {}
        }
        match stream.read(&mut buf).map_err(|e| format!("welcome: {e}"))? {
            0 => return Err("server closed the connection during hello".into()),
            n => decoder.extend(&buf[..n]),
        }
    }
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    Ok(Conn { stream, decoder, out: Vec::new() })
}

/// One `DigestRequest` on a fresh control connection: the
/// administrator's replica digest and whether its streams are idle.
fn admin_digest(addr: SocketAddr) -> Result<(u64, bool), String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("control connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    stream
        .write_all(&encode_frame(&Frame::<Char>::DigestRequest { session: SESSION, doc: DOC }))
        .map_err(|e| format!("digest request: {e}"))?;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 256];
    loop {
        if let Some(Frame::DigestReply { digest, idle, .. }) =
            decoder.next::<Char>().map_err(|e| format!("bad frame: {e}"))?
        {
            return Ok((digest, idle));
        }
        match stream.read(&mut buf).map_err(|e| format!("digest reply: {e}"))? {
            0 => return Err("server closed the control connection".into()),
            n => decoder.extend(&buf[..n]),
        }
    }
}

// ---------------------------------------------------------------------
// Members.
// ---------------------------------------------------------------------

/// Everything recorded about one cooperative op of a member.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    /// When it was due (open loop) or the slot freed (closed loop).
    pub intended: u64,
    /// `Engine::generate` entered / returned.
    pub gen_start: u64,
    /// See `gen_start`.
    pub gen_end: u64,
    /// Its last byte reached the socket (traced runs only; 0 = never).
    pub written: u64,
    /// Its flag was seen to have left `Tentative` (0 = never).
    pub settled: u64,
    /// `Engine::receive` of it returned at the other member (0 = never).
    pub visible: u64,
    /// The flag it settled to.
    pub flag: Flag,
    /// Generated inside the measured window.
    pub measured: bool,
    /// Root span, [`NONE`] when untraced.
    root: u32,
}

/// Per-member counts over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Cooperative ops the schedule asked for.
    pub attempted: u64,
    /// `generate` failed for a reason other than `Check_Local`.
    pub errored: u64,
    /// Refused by `Check_Local`.
    pub denied_local: u64,
    /// Administrative proposals sent.
    pub proposals: u64,
    /// Bytes written to / read from the socket.
    pub bytes_out: u64,
    /// See `bytes_out`.
    pub bytes_in: u64,
    /// Frames decoded.
    pub frames_in: u64,
    /// `write` calls that moved bytes.
    pub writes: u64,
    /// `Data` frames received, and how many were duplicates.
    pub data_in: u64,
    /// See `data_in`.
    pub dup_in: u64,
    /// Packets re-sent on an RTO.
    pub retransmits: u64,
    /// Deepest the unacked send buffer got.
    pub unacked_max: u64,
}

/// One member: a full replica behind the reliable session layer.
pub struct Member {
    user: u32,
    /// The replica.
    pub engine: Engine<Char>,
    endpoint: Endpoint<Char>,
    conn: Option<Conn>,
    /// Every op generated so far; index = `seq − 1`.
    pub ops: Vec<OpRec>,
    /// When `receive` of the *other* member's op `seq` returned here;
    /// index = `seq − 1`.
    peer_visible: Vec<u64>,
    outstanding: VecDeque<u32>,
    unwritten: Vec<u32>,
    /// Counts over the measured window.
    pub counts: Counts,
    counting: bool,
}

/// A restrictive proposal on its way to being enforced everywhere.
struct Enforcing {
    op: AdminOp,
    intended: u64,
    /// Version the administrator gave it, once seen coming back.
    version: Option<u64>,
    reached: [bool; 2],
}

/// State the two members share on the `clients` thread.
struct Shared {
    origin: Instant,
    tracer: Tracer,
    enforcing: VecDeque<Enforcing>,
    /// Highest version of a sequenced proposal seen coming back (each
    /// echo reaches both members; only the first sighting counts).
    echoed: u64,
    enforce_ms: Vec<f64>,
    buf: Box<[u8; 64 * 1024]>,
}

impl Shared {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A clock reading only traced runs pay for.
    fn tick(&self) -> u64 {
        if self.tracer.enabled() {
            self.now()
        } else {
            0
        }
    }
}

/// What surfaced the message a settle poll follows: the read, decode and
/// session-layer calls, as `(start, end)` pairs.
#[derive(Clone, Copy, Default)]
struct Arrival {
    read: (u64, u64),
    decode: (u64, u64),
    on_data: (u64, u64),
}

fn build_op(engine: &Engine<Char>, e: Edit) -> Op<Char> {
    engine
        .with(DOC, |site| {
            let buf = site.engine().buffer();
            let len = buf.visible_len();
            let letter = char::from(e.letter);
            if e.kind == EditKind::Ins || len == 0 {
                let ins = Edit { kind: EditKind::Ins, ..e };
                return Op::ins(ins.position(len), letter);
            }
            let pos = e.position(len);
            let at = buf.internal_target_pos(pos).expect("position within the visible document");
            let elem = buf.cell(at).expect("cell exists").elem;
            match e.kind {
                EditKind::Del => Op::del(pos, elem),
                _ => Op::up(pos, elem, letter),
            }
        })
        .expect("the document is hosted")
}

impl Member {
    fn new(user: u32, conn: Conn) -> Member {
        let engine: Engine<Char> = Engine::new_user(user, 0);
        let initial = ServerConfig::default().doc;
        engine
            .create_documents([(DOC, CharDocument::from_str(&initial), initial_policy(2))])
            .expect("fresh engine hosts no documents yet");
        let rto = ServerConfig::default().rto_ms;
        Member {
            user,
            engine,
            endpoint: Endpoint::new(
                user as usize,
                ReliableConfig { initial_rto_ms: rto, max_rto_ms: rto * 16 },
            ),
            conn: Some(conn),
            ops: Vec::new(),
            peer_visible: Vec::new(),
            outstanding: VecDeque::new(),
            unwritten: Vec::new(),
            counts: Counts::default(),
            counting: false,
        }
    }

    fn slot(&self) -> usize {
        self.user as usize - 1
    }

    /// Puts a message on the member's stream and queues its frame.
    fn post(&mut self, sh: &mut Shared, msg: Message<Char>, after: u64) -> (u64, u64) {
        let now_ms = sh.now() / 1_000_000;
        let pkt = self.endpoint.send(0, Arc::new(msg), now_ms);
        let sent = sh.tick();
        sh.tracer.record(Name::ReliableSend, after, sent);
        let bytes = encode_frame(&Frame::from_packet(DOC, pkt));
        let encoded = sh.tick();
        sh.tracer.record(Name::FrameEncode, sent, encoded);
        if let Some(conn) = self.conn.as_mut() {
            // With no connection the packet waits in the send buffer and
            // goes out when the stream restarts.
            conn.out.extend_from_slice(&bytes);
        }
        if self.counting {
            self.counts.unacked_max =
                self.counts.unacked_max.max(self.endpoint.unacked_depth() as u64);
        }
        (sent, encoded)
    }

    /// Generates one scheduled edit: `Engine::generate`, then the
    /// session layer and the frame codec.
    fn generate(&mut self, sh: &mut Shared, e: Edit, intended: u64) {
        self.counts.attempted += u64::from(self.counting);
        let op = build_op(&self.engine, e);
        if sh.tracer.enabled() {
            let action = Action::for_op(&op).expect("edits are never Nop");
            let t = sh.now();
            std::hint::black_box(self.engine.check_local(DOC, &action));
            sh.tracer.record(Name::PolicyCheckLocal, t, sh.now());
        }
        let gen_start = sh.now();
        let generated = self.engine.generate(DOC, op);
        let gen_end = sh.now();
        let msg = match generated {
            Ok(msg) => msg,
            Err(CoreError::AccessDenied { .. }) => {
                self.counts.denied_local += u64::from(self.counting);
                return;
            }
            Err(e) => {
                eprintln!("benchmark: user {}: generate: {e}", self.user);
                self.counts.errored += u64::from(self.counting);
                return;
            }
        };
        let Message::Coop(q) = &msg else { unreachable!("generate returns a cooperative request") };
        let id = q.ot.id;
        assert_eq!(id.seq as usize, self.ops.len() + 1, "request serials are dense");
        sh.tracer.record(Name::SchedWait, intended, gen_start);
        sh.tracer.record(Name::CoreGenerate, gen_start, gen_end);
        let root = match self.counting {
            true => sh.tracer.push_root((id.site, id.seq), intended, 0),
            false => NONE,
        };
        let (sent, encoded) = self.post(sh, msg, gen_end);
        if root != NONE {
            sh.tracer.push(Name::SchedWait, root, intended, gen_start);
            sh.tracer.push(Name::CoreGenerate, root, gen_start, gen_end);
            sh.tracer.push(Name::ReliableSend, root, gen_end, sent);
            sh.tracer.push(Name::FrameEncode, root, sent, encoded);
        }
        let at = self.ops.len() as u32;
        self.ops.push(OpRec {
            intended,
            gen_start,
            gen_end,
            written: 0,
            settled: 0,
            visible: 0,
            flag: Flag::Tentative,
            measured: self.counting,
            root,
        });
        self.outstanding.push_back(at);
        self.unwritten.push(at);
    }

    /// Proposes one administrative operation as a delegate.
    fn propose(&mut self, sh: &mut Shared, op: AdminOp, intended: u64) -> Result<(), String> {
        let proposal = self
            .engine
            .with(DOC, |site| site.propose_admin(op.clone()))
            .expect("the document is hosted")
            .map_err(|e| format!("propose_admin: {e}"))?;
        if op.is_restrictive() && self.counting {
            sh.enforcing.push_back(Enforcing { op, intended, version: None, reached: [false; 2] });
        }
        self.counts.proposals += u64::from(self.counting);
        let t = sh.tick();
        self.post(sh, Message::Proposal(proposal), t);
        Ok(())
    }

    /// Writes as much of the out-buffer as the socket takes.
    fn flush(&mut self, sh: &mut Shared) -> bool {
        let Some(conn) = self.conn.as_mut() else { return false };
        let mut worked = false;
        while !conn.out.is_empty() {
            let t0 = sh.tick();
            match conn.stream.write(&conn.out) {
                Ok(0) => break,
                Ok(n) => {
                    let t1 = sh.tick();
                    sh.tracer.record(Name::WireWrite, t0, t1);
                    conn.out.drain(..n);
                    worked = true;
                    if self.counting {
                        self.counts.writes += 1;
                        self.counts.bytes_out += n as u64;
                    }
                    if conn.out.is_empty() {
                        for at in self.unwritten.drain(..) {
                            let rec = &mut self.ops[at as usize];
                            rec.written = t1;
                            if rec.root != NONE {
                                sh.tracer.push(Name::WireWrite, rec.root, t0, t1);
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break, // the read side reports the loss
            }
        }
        worked
    }

    /// Reads whatever the socket holds, handles every complete frame,
    /// fires due retransmissions and flushes. `Ok(true)` when anything
    /// happened; a lost connection clears `self.conn`.
    fn pump(&mut self, sh: &mut Shared) -> Result<bool, String> {
        if self.conn.is_none() {
            // Nothing to read, and retransmitting into no socket would
            // only back the timer off.
            return Ok(false);
        }
        let mut worked = false;
        let mut lost = false;
        while let Some(conn) = self.conn.as_mut() {
            let t0 = sh.tick();
            match conn.stream.read(&mut sh.buf[..]) {
                Ok(0) => lost = true,
                Ok(n) => {
                    let t1 = sh.tick();
                    sh.tracer.record(Name::WireRead, t0, t1);
                    conn.decoder.extend(&sh.buf[..n]);
                    self.counts.bytes_in += if self.counting { n as u64 } else { 0 };
                    worked = true;
                    self.handle_frames(sh, (t0, t1))?;
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => lost = true,
            }
            break;
        }
        if lost {
            self.conn = None;
            self.unwritten.clear();
            return Ok(true);
        }
        let now_ms = sh.now() / 1_000_000;
        if matches!(self.endpoint.next_deadline(), Some(d) if d <= now_ms) {
            for (_, pkt) in self.endpoint.due_retransmissions(now_ms) {
                self.counts.retransmits += u64::from(self.counting);
                if let Some(conn) = self.conn.as_mut() {
                    conn.out.extend_from_slice(&encode_frame(&Frame::from_packet(DOC, pkt)));
                }
            }
        }
        Ok(self.flush(sh) || worked)
    }

    fn handle_frames(&mut self, sh: &mut Shared, read: (u64, u64)) -> Result<(), String> {
        loop {
            let t0 = sh.tick();
            let conn = self.conn.as_mut().expect("frames come from a live connection");
            let frame = match conn.decoder.next::<Char>() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()),
                Err(e) => return Err(format!("user {}: bad frame from server: {e}", self.user)),
            };
            let t1 = sh.tick();
            sh.tracer.record(Name::FrameDecode, t0, t1);
            self.counts.frames_in += u64::from(self.counting);
            let now_ms = sh.now() / 1_000_000;
            match frame {
                Frame::Data { epoch, seq, ack_epoch, ack, msg, .. } => {
                    let t2 = sh.tick();
                    self.endpoint.on_ack(0, ack_epoch, ack, now_ms);
                    let outcome = self.endpoint.on_data(0, epoch, seq, msg);
                    let t3 = sh.tick();
                    sh.tracer.record(Name::ReliableOnData, t2, t3);
                    if self.counting {
                        self.counts.data_in += 1;
                        self.counts.dup_in += u64::from(outcome.duplicate);
                    }
                    let arrival = Arrival { read, decode: (t0, t1), on_data: (t2, t3) };
                    for m in outcome.deliverable {
                        self.deliver(
                            sh,
                            Arc::try_unwrap(m).unwrap_or_else(|m| (*m).clone()),
                            arrival,
                        )?;
                    }
                    let (epoch, cum) = self.endpoint.ack_for(0);
                    let ack = Frame::<Char>::Ack { doc: DOC, from: self.user, epoch, cum };
                    let conn = self.conn.as_mut().expect("still connected");
                    conn.out.extend_from_slice(&encode_frame(&ack));
                }
                Frame::Ack { epoch, cum, .. } => self.endpoint.on_ack(0, epoch, cum, now_ms),
                Frame::Welcome { .. } => {}
                other => return Err(format!("unexpected frame for a member: {other:?}")),
            }
        }
    }

    /// Hands one in-order message to the replica. An administrative
    /// request is followed by the settle poll: every outstanding op's
    /// flag and the policy version, under one shard lock.
    fn deliver(
        &mut self,
        sh: &mut Shared,
        msg: Message<Char>,
        arrival: Arrival,
    ) -> Result<(), String> {
        let coop_seq = match &msg {
            Message::Coop(q) => Some(q.ot.id.seq as usize),
            _ => None,
        };
        let admin = match &msg {
            Message::Admin(r) => {
                // The administrator echoes a sequenced proposal with the
                // version it gave it; proposals come back in the order
                // they were made.
                if !matches!(r.op, AdminOp::Validate { .. }) && r.version > sh.echoed {
                    sh.echoed = r.version;
                    let next = sh.enforcing.iter_mut().find(|e| e.version.is_none());
                    if let Some(e) = next.filter(|e| e.op == r.op) {
                        e.version = Some(r.version);
                    }
                }
                true
            }
            _ => false,
        };
        let t0 = sh.tick();
        self.engine.receive(DOC, msg).map_err(|e| format!("user {}: receive: {e}", self.user))?;
        if let Some(seq) = coop_seq {
            let t1 = sh.now();
            sh.tracer.record(Name::CoreReceiveCoop, t0, t1);
            if self.peer_visible.len() < seq {
                self.peer_visible.resize(seq, 0);
            }
            // First sighting only: a recovered server re-sends what it
            // cannot prove was received, and the replica drops the copy.
            if self.peer_visible[seq - 1] == 0 {
                self.peer_visible[seq - 1] = t1;
            }
        } else if admin {
            let t1 = sh.tick();
            sh.tracer.record(Name::CoreReceiveAdmin, t0, t1);
            self.settle_poll(sh, arrival, (t0, t1));
        }
        Ok(())
    }

    fn settle_poll(&mut self, sh: &mut Shared, arrival: Arrival, receive: (u64, u64)) {
        let user = self.user;
        let outstanding = &self.outstanding;
        let mut settled: Vec<(u32, Flag)> = Vec::new();
        let version = self
            .engine
            .with(DOC, |site| {
                for &at in outstanding {
                    let id = RequestId::new(user, u64::from(at) + 1);
                    match site.flag_of(id) {
                        Some(Flag::Tentative) => {}
                        Some(flag) => settled.push((at, flag)),
                        None => panic!("{id} vanished from its origin's flag table"),
                    }
                }
                site.version()
            })
            .expect("the document is hosted");
        let now = sh.now();
        sh.tracer.record(Name::SettlePoll, receive.1, now);
        for (at, flag) in settled {
            self.outstanding.retain(|&o| o != at);
            let rec = &mut self.ops[at as usize];
            rec.settled = now;
            rec.flag = flag;
            if rec.root == NONE {
                continue;
            }
            let t = &mut sh.tracer;
            t.close(rec.root, now);
            if rec.written != 0 && rec.written <= arrival.read.0 {
                let rtt = t.push(Name::ServerRtt, rec.root, rec.written, arrival.decode.1);
                t.push(Name::WireRead, rtt, arrival.read.0, arrival.read.1);
                t.push(Name::FrameDecode, rtt, arrival.decode.0, arrival.decode.1);
            }
            t.push(Name::ReliableOnData, rec.root, arrival.on_data.0, arrival.on_data.1);
            t.push(Name::CoreReceiveAdmin, rec.root, receive.0, receive.1);
            t.push(Name::SettlePoll, rec.root, receive.1, now);
        }
        // Enforcement: a restriction is in force once *both* members'
        // policy copies reached the version the administrator gave it.
        let slot = self.slot();
        for e in sh.enforcing.iter_mut() {
            if matches!(e.version, Some(v) if v <= version) {
                e.reached[slot] = true;
            }
        }
        while matches!(sh.enforcing.front(), Some(e) if e.reached == [true; 2]) {
            let e = sh.enforcing.pop_front().expect("just matched");
            sh.enforce_ms.push((now - e.intended) as f64 / 1e6);
        }
    }

    /// `true` when nothing of this member's is in flight.
    fn quiet(&self) -> bool {
        self.outstanding.is_empty()
            && !self.endpoint.has_unacked()
            && self.conn.as_ref().is_some_and(|c| c.out.is_empty())
    }
}

// ---------------------------------------------------------------------
// A session: the server thread plus both members.
// ---------------------------------------------------------------------

/// The running system: the server thread and both members.
pub struct Session {
    /// The current server incarnation (`None` only while `durable` is
    /// between dropping one and booting the next).
    host: Option<ServerHost>,
    /// Members 1 and 2.
    pub members: [Member; 2],
    sh: Shared,
    busy_ns: u64,
}

/// What the measured window produced, before it is turned into metrics.
pub struct Measured {
    /// Window bounds on the run clock (for `durable`: start → drop).
    pub window: (u64, u64),
    /// Whole measured phase including recovery and the post phase.
    pub span: (u64, u64),
    /// `durable`: when the server was dropped / the first op generated
    /// after the drop was validated.
    pub dropped_at: Option<u64>,
    /// See `dropped_at`.
    pub recovered_at: Option<u64>,
    /// `Server::bind` of the incarnation that ended the run (`durable`:
    /// the recovering one).
    pub bind_s: f64,
    /// Threads of the process as the window opened.
    pub threads: Option<usize>,
    /// Time the `clients` thread spent working, not sleeping.
    pub client_busy_ns: u64,
    /// Server-thread CPU over the window, seconds.
    pub server_cpu_s: f64,
    /// Server registry over the window (`delta` of two snapshots).
    pub registry: MetricsReport,
    /// Deepest logs / queue seen at the members (sampled at 1 Hz).
    pub log_len_max: u64,
    /// See `log_len_max`.
    pub admin_log_len_max: u64,
    /// See `log_len_max`.
    pub queued_max: u64,
    /// Restrictive proposal → enforced at both members, ms.
    pub enforce_ms: Vec<f64>,
    /// Restrictive proposals never seen enforced.
    pub enforce_pending: usize,
    /// Size of the data directory when the server was dropped.
    pub wal_bytes: u64,
    /// Copy of the dropped server's data directory (traced `durable`).
    pub wal_copy: Option<PathBuf>,
    /// Ops still unsettled when the drain gave up.
    pub unsettled: u64,
}

fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_size(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let dest = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &dest)?;
        } else {
            std::fs::copy(e.path(), dest)?;
        }
    }
    Ok(())
}

impl Session {
    /// Set-up, everything `setup_s` covers: bind, connect, `Hello`,
    /// policy preload (`revoke`) and the closed-loop warm-up.
    pub fn set_up(
        workload: Workload,
        schedule: &Schedule,
        data_dir: Option<PathBuf>,
    ) -> Result<Session, String> {
        let mut host = ServerHost::boot(data_dir)?;
        let addr = host.info()?.addr;
        // Both members are welcomed before anyone edits: the server
        // relays only to members it has seen.
        let members = [Member::new(1, dial(addr, 1)?), Member::new(2, dial(addr, 2)?)];
        let sh = Shared {
            origin: Instant::now(),
            tracer: Tracer::new(0),
            enforcing: VecDeque::new(),
            echoed: 0,
            enforce_ms: Vec::new(),
            buf: Box::new([0u8; 64 * 1024]),
        };
        let mut s = Session { host: Some(host), members, sh, busy_ns: 0 };
        if workload == Workload::Revoke {
            s.preload_policy()?;
        }
        let mut next = [0usize; 2];
        s.drive(Instant::now() + Duration::from_secs(60), |s, _| {
            s.refill(&schedule.warmup, &mut next);
            Ok(next.iter().zip(&schedule.warmup).all(|(&n, edits)| n == edits.len()))
        })?;
        s.settle(Duration::from_secs(30))?;
        Ok(s)
    }

    /// `REDUNDANT_GRANTS` shadowed grants, appended after the catch-all
    /// by member 1 as a delegate, and waited for at both members.
    fn preload_policy(&mut self) -> Result<(), String> {
        let base = self.members[0]
            .engine
            .with(DOC, |site| site.policy().authorizations().len())
            .expect("the document is hosted");
        for i in 0..REDUNDANT_GRANTS {
            let auth = Authorization::grant(
                Subject::User(1 + (i % 2) as u32),
                DocObject::Document,
                [Right::ALL[i % 4]],
            );
            let now = self.sh.now();
            self.members[0].propose(&mut self.sh, AdminOp::AddAuth { pos: base + i, auth }, now)?;
        }
        self.drive(Instant::now() + Duration::from_secs(60), |s, _| {
            Ok(s.members.iter().all(|m| {
                m.engine.with(DOC, |site| site.policy().authorizations().len())
                    == Some(base + REDUNDANT_GRANTS)
            }))
        })
    }

    /// The `clients` loop: `step` generates whatever is due and says
    /// whether the phase is over; then both members pump their sockets;
    /// an idle pass sleeps [`IDLE_SLEEP`].
    fn drive(
        &mut self,
        deadline: Instant,
        mut step: impl FnMut(&mut Session, u64) -> Result<bool, String>,
    ) -> Result<(), String> {
        loop {
            let began = Instant::now();
            if began >= deadline {
                return Err("phase ran past its deadline".into());
            }
            let now = self.sh.now();
            let generated_before: usize = self.members.iter().map(|m| m.ops.len()).sum();
            let done = step(self, now)?;
            let mut worked =
                self.members.iter().map(|m| m.ops.len()).sum::<usize>() != generated_before;
            for m in self.members.iter_mut() {
                worked |= m.pump(&mut self.sh)?;
            }
            if done {
                return Ok(());
            }
            if worked {
                self.busy_ns += began.elapsed().as_nanos() as u64;
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }

    /// Pumps until nothing is in flight at either member (or `limit`).
    fn settle(&mut self, limit: Duration) -> Result<(), String> {
        self.drive(Instant::now() + limit, |s, _| Ok(s.members.iter().all(Member::quiet)))
    }

    /// Generates every open-loop op and proposal due at `now`.
    fn generate_due(
        &mut self,
        schedule: &Schedule,
        t0: u64,
        now: u64,
        next: &mut [usize; 2],
        next_admin: &mut usize,
    ) -> Result<(), String> {
        for (m, next) in next.iter_mut().enumerate() {
            while let Some(e) = schedule.edits[m].get(*next).filter(|e| t0 + e.at_ns <= now) {
                self.members[m].generate(&mut self.sh, *e, t0 + e.at_ns);
                *next += 1;
            }
        }
        while let Some(a) = schedule.admin.get(*next_admin).filter(|a| t0 + a.at_ns <= now) {
            self.members[0].propose(&mut self.sh, revoke_op(a), t0 + a.at_ns)?;
            *next_admin += 1;
        }
        Ok(())
    }

    /// Refills each member's closed-loop window from `edits` (which hold
    /// several times what the loop can consume).
    fn refill(&mut self, edits: &[Vec<Edit>; 2], next: &mut [usize; 2]) {
        for (m, next) in next.iter_mut().enumerate() {
            while self.members[m].outstanding.len() < WINDOW && *next < edits[m].len() {
                let now = self.sh.now();
                self.members[m].generate(&mut self.sh, edits[m][*next], now);
                *next += 1;
            }
        }
    }

    /// The measured window.
    pub fn measure(
        &mut self,
        opts: &RunOptions,
        schedule: &Schedule,
        data_dir: Option<&Path>,
        window_ns: u64,
    ) -> Result<Measured, String> {
        let workload = opts.workload;
        if opts.traced {
            let ops = match workload.coop_gap_ns() {
                Some(gap) => 2 * window_ns / gap,
                None => 2_500 * window_ns / 1_000_000_000,
            };
            self.sh.tracer = Tracer::new(ops as usize * 14);
        }
        for m in self.members.iter_mut() {
            m.counting = true;
            m.counts = Counts::default();
        }
        self.busy_ns = 0;
        let threads = thread_count();
        let info = self.host_mut().info()?.clone();
        let registry_before = info.obs.snapshot();
        let cpu_before = thread_cpu_s(info.tid).unwrap_or(0.0);
        let t0 = self.sh.now();

        let mut next = [0usize; 2];
        let mut next_admin = 0usize;
        let mut next_sample = t0;
        let (mut log_len_max, mut admin_log_len_max, mut queued_max) = (0u64, 0u64, 0u64);
        let mut stall = opts.stall;
        // `durable` only: when to drop the server, when it was dropped,
        // when it was seen recovered, the booting second incarnation.
        let pre_ns = (window_ns as f64 * DURABLE_PRE) as u64;
        let post_ns = (window_ns as f64 * DURABLE_POST) as u64;
        let (mut dropped_at, mut recovered_at) = (None, None);
        let (mut bind_s, mut wal_bytes, mut wal_copy) = (info.bind_s, 0u64, None);
        let (mut cpu_s, mut registry) = (0.0, None);
        let mut end = t0 + window_ns;
        let mut first_after_drop = [usize::MAX; 2];

        self.drive(Instant::now() + Duration::from_secs(150), |s, now| {
            if let Some((_, dur)) = stall.filter(|(at, _)| now >= t0 + at.as_nanos() as u64) {
                std::thread::sleep(dur);
                stall = None;
            }
            if now >= next_sample {
                next_sample += 1_000_000_000;
                for m in &s.members {
                    let (log, admin, queued) = m
                        .engine
                        .with(DOC, |site| {
                            (site.engine().log().len(), site.admin_log().len(), site.queued())
                        })
                        .expect("the document is hosted");
                    log_len_max = log_len_max.max(log as u64);
                    admin_log_len_max = admin_log_len_max.max(admin as u64);
                    queued_max = queued_max.max(queued as u64);
                }
            }
            if workload == Workload::Durable {
                if dropped_at.is_none() && now >= t0 + pre_ns {
                    // Process-kill durability: the reactor stops and the
                    // `Server` is dropped where it stands. What the OS
                    // already holds survives; nothing else is synced.
                    cpu_s = thread_cpu_s(info.tid).unwrap_or(0.0) - cpu_before;
                    registry = Some(info.obs.snapshot().delta(&registry_before));
                    let dir = data_dir.expect("durable runs have a data dir");
                    s.host.take().expect("a server is running").stop()?;
                    dropped_at = Some(s.sh.now());
                    wal_bytes = dir_size(dir);
                    if opts.traced {
                        let copy = dir.with_extension("copy");
                        copy_dir(dir, &copy).map_err(|e| format!("copy data dir: {e}"))?;
                        wal_copy = Some(copy);
                    }
                    // The second incarnation binds — and replays — on its
                    // own thread; the old one has been joined, so the
                    // process is back to two.
                    s.host = Some(ServerHost::boot(Some(dir.to_path_buf()))?);
                    for (m, first) in s.members.iter().zip(first_after_drop.iter_mut()) {
                        *first = m.ops.len();
                    }
                    end = u64::MAX;
                }
                if dropped_at.is_some() && s.members.iter().any(|m| m.conn.is_none()) {
                    if let Some(fresh) = s.host_mut().try_info()?.cloned() {
                        bind_s = fresh.bind_s;
                        let now_ms = s.sh.now() / 1_000_000;
                        for m in s.members.iter_mut().filter(|m| m.conn.is_none()) {
                            m.conn = Some(dial(fresh.addr, m.user)?);
                            m.endpoint.restart_stream_to(0, now_ms);
                        }
                    }
                }
                if let (Some(_), None) = (dropped_at, recovered_at) {
                    let first_settled = s
                        .members
                        .iter()
                        .zip(first_after_drop)
                        .filter_map(|(m, first)| m.ops.get(first).map(|r| r.settled))
                        .filter(|&t| t != 0)
                        .min();
                    if let Some(t) = first_settled {
                        recovered_at = Some(t);
                        end = s.sh.now() + post_ns;
                    }
                }
            }
            if now >= end {
                return Ok(true);
            }
            match workload.coop_gap_ns() {
                Some(_) => s.generate_due(schedule, t0, now, &mut next, &mut next_admin)?,
                None => s.refill(&schedule.edits, &mut next),
            }
            Ok(false)
        })?;
        let t_end = self.sh.now();
        let client_busy_ns = self.busy_ns;
        if registry.is_none() {
            cpu_s = thread_cpu_s(info.tid).unwrap_or(0.0) - cpu_before;
            registry = Some(info.obs.snapshot().delta(&registry_before));
        }
        for m in self.members.iter_mut() {
            m.counting = false;
        }

        // Load has stopped: give in-flight ops `DRAIN_LIMIT` to settle.
        let drained = self.settle(DRAIN_LIMIT);
        let unsettled: u64 = self.members.iter().map(|m| m.outstanding.len() as u64).sum();
        if let (Err(e), 0) = (&drained, unsettled) {
            eprintln!("benchmark: streams not idle after the drain: {e}");
        }
        // The other member's view of each op.
        let seen = [1, 0].map(|peer| std::mem::take(&mut self.members[peer].peer_visible));
        for (origin, seen) in self.members.iter_mut().zip(seen) {
            for (rec, t) in origin.ops.iter_mut().zip(seen) {
                rec.visible = t;
            }
        }
        Ok(Measured {
            window: (t0, dropped_at.unwrap_or(t0 + window_ns)),
            span: (t0, t_end),
            dropped_at,
            recovered_at,
            bind_s,
            threads,
            client_busy_ns,
            server_cpu_s: cpu_s,
            registry: registry.expect("snapshotted above"),
            log_len_max,
            admin_log_len_max,
            queued_max,
            enforce_ms: std::mem::take(&mut self.sh.enforce_ms),
            enforce_pending: self.sh.enforcing.len(),
            wal_bytes,
            wal_copy,
            unsettled,
        })
    }

    /// The correctness gate: the administrator's digest (over a control
    /// connection opened only now) against both members' on two
    /// consecutive polls. `Err` names the digest parts that disagree.
    pub fn check_digests(&mut self) -> Result<u64, String> {
        let addr = self.host_mut().info()?.addr;
        let mut agreed = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            self.settle(Duration::from_secs(10)).ok();
            let (admin, idle) = admin_digest(addr)?;
            let mine: Vec<u64> = self
                .members
                .iter()
                .map(|m| m.engine.replica_digest(DOC).expect("the document is hosted"))
                .collect();
            if idle && mine.iter().all(|&d| d == admin) {
                agreed += 1;
                if agreed == 2 {
                    return Ok(admin);
                }
            } else {
                agreed = 0;
            }
            if Instant::now() >= deadline {
                let parts: Vec<[u64; 4]> = self
                    .members
                    .iter()
                    .map(|m| {
                        m.engine
                            .with(DOC, |site| site.replica_digest_parts())
                            .expect("the document is hosted")
                    })
                    .collect();
                let names = ["document", "policy", "admin log", "flags"];
                let differ: Vec<&str> =
                    (0..4).filter(|&i| parts[0][i] != parts[1][i]).map(|i| names[i]).collect();
                let what = match differ.is_empty() {
                    true => "members agree with each other but not with the administrator \
                             (its parts are not exported over the wire)"
                        .to_string(),
                    false => format!("members disagree on: {}", differ.join(", ")),
                };
                return Err(format!(
                    "final digests disagree: administrator {admin:#x} (idle {idle}), members \
                     {mine:x?}; {what}; member [document, policy, admin log, flags] parts {parts:x?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn host_mut(&mut self) -> &mut ServerHost {
        self.host.as_mut().expect("a server is running")
    }

    /// The registry of the server incarnation running now.
    pub fn registry(&mut self) -> Result<MetricsReport, String> {
        Ok(self.host_mut().info()?.obs.snapshot())
    }

    /// The run's tracer (spans of the measured window).
    pub fn tracer(&self) -> &Tracer {
        &self.sh.tracer
    }

    /// Tears the session down: members hang up, the server stops.
    pub fn tear_down(self) -> Result<(), String> {
        let Session { host, members, .. } = self;
        drop(members);
        host.map_or(Ok(()), ServerHost::stop)
    }
}

/// The administrative operation of one `revoke` step: a negative
/// authorization on one dynamic right over the whole document against
/// member 2, inserted at (or withdrawn from) the head of the policy.
fn revoke_op(step: &AdminStep) -> AdminOp {
    let auth = Authorization::revoke(
        Subject::User(2),
        DocObject::Document,
        [Right::DYNAMIC[step.right as usize]],
    );
    match step.add {
        true => AdminOp::AddAuth { pos: 0, auth },
        false => AdminOp::DelAuth { pos: 0, auth },
    }
}
