//! # dce-loadgen — open-loop load driver and convergence checker for `dce-server`
//!
//! Drives N concurrent client connections against a running
//! [`dce_server::Server`], each one a full collaborator replica set: a
//! [`dce_core::Engine`] (one `Site` shard per hosted document) behind
//! per-document [`dce_net::reliable::Endpoint`]s, all multiplexed over
//! one TCP connection speaking [`dce_net::frame`] frames. Each client issues
//! a configurable mix of document edits (insert/delete/update) and
//! delegated administrative proposals on an **open-loop** schedule —
//! ops fire on their think-time clock regardless of how many earlier
//! ops are still unresolved — and counts each request until its flag
//! settles (`Valid` via the administrator's validation, `Invalid` via a
//! retroactive undo). It measures nothing: latency and throughput are
//! the repository benchmark's job (`benchmark/`).
//!
//! Documents are chosen per op with a skew toward low ids (min of two
//! uniform draws), so a multi-document run exercises both hot and cold
//! shards. At quiescence (every client drained, the server's endpoints
//! holding no unacked data) the coordinator compares
//! [`dce_core::Site::replica_digest`] across every client replica *and*
//! the server's administrator replica **per document**; convergence
//! requires every document's digests equal on two consecutive polls.
//! Divergence or timeout trips the armed `dce-trace` flight recorder,
//! so a failed run leaves `results/flight-<seed>.json` behind exactly
//! like the in-process chaos suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dce_core::{CoreError, DocumentId, Engine, Flag, Message};
use dce_document::{Char, CharDocument, Op};
use dce_net::frame::{encode_frame, Frame, FrameDecoder};
use dce_net::reliable::{Endpoint, ReliableConfig};
use dce_obs::ObsHandle;
use dce_ot::ids::RequestId;
use dce_policy::{AdminOp, Authorization, DocObject, Right, Subject};
use dce_server::{initial_policy, ServerConfig};
use dce_trace::{build_spans, merge_events};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Relative weights of the op mix (need not sum to 100).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Insertions.
    pub ins: u32,
    /// Deletions.
    pub del: u32,
    /// Updates.
    pub up: u32,
    /// Delegated administrative proposals.
    pub admin: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Mix { ins: 50, del: 25, up: 15, admin: 10 }
    }
}

impl Mix {
    /// Parses `ins:del:up:admin`, e.g. `50:25:15:10`. `None` unless the
    /// weights have a positive sum that fits a `u32`.
    pub fn parse(s: &str) -> Option<Mix> {
        let parts: Vec<u32> = s.split(':').map(str::parse).collect::<Result<_, _>>().ok()?;
        let [ins, del, up, admin] = parts[..] else { return None };
        let mix = Mix { ins, del, up, admin };
        matches!(mix.total(), Some(total) if total > 0).then_some(mix)
    }

    /// The sum of the weights; `None` when it overflows a `u32`.
    fn total(&self) -> Option<u32> {
        self.ins.checked_add(self.del)?.checked_add(self.up)?.checked_add(self.admin)
    }
}

/// A load run's knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7461`.
    pub addr: String,
    /// Session id to join.
    pub session: u32,
    /// Concurrent client connections (users `1..=clients`). The server
    /// must be configured for at least this many collaborators.
    pub clients: u32,
    /// Documents per session (ids `0..docs`; must match the server's
    /// `--docs`). Each op picks a document with a skew toward low ids.
    pub docs: u32,
    /// Total operations across all clients.
    pub ops: u64,
    /// Op mix.
    pub mix: Mix,
    /// Percent of administrative proposals that are *restrictive*
    /// (a negative authorization on a narrow range — exercises the
    /// retroactive-undo path).
    pub restrictive_pct: u32,
    /// Mean think time between one client's ops (ms); 0 = flat out.
    pub think_ms: u64,
    /// RNG seed (op choices, positions, think-time jitter).
    pub seed: u64,
    /// Initial document (must match the server's `--doc`).
    pub doc: String,
    /// Give up (and dump flight evidence) after this many seconds.
    pub timeout_s: u64,
    /// Where flight dumps land on divergence.
    pub results_dir: PathBuf,
    /// How many of the highest-numbered users join as *idle* members:
    /// they `Hello`, receive and acknowledge every relayed message, and
    /// are held to the same convergence check — but never generate an
    /// op. Exercises the server's synthesized-heartbeat path: an idle
    /// member speaks no heartbeats of its own, which would otherwise pin
    /// the stability horizon (and the logs) forever.
    pub idle_clients: u32,
    /// When set, the run survives server restarts: on a dropped
    /// connection a client re-dials whatever address the cell holds
    /// (instead of `addr`), re-`Hello`s and restarts every stream in a
    /// new epoch rather than failing the run. Pairs with a `--data-dir`
    /// server that the restart harness rebinds on a fresh port.
    pub addr_cell: Option<Arc<Mutex<String>>>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7461".into(),
            session: 1,
            clients: 4,
            docs: 1,
            ops: 1_000,
            mix: Mix::default(),
            restrictive_pct: 25,
            think_ms: 0,
            seed: 0xD15E_ED17,
            doc: "the quick brown fox".into(),
            timeout_s: 120,
            results_dir: PathBuf::from("results"),
            idle_clients: 0,
            addr_cell: None,
        }
    }
}

/// The address a (re)connection should dial right now.
fn addr_of(cfg: &LoadgenConfig) -> String {
    match &cfg.addr_cell {
        Some(cell) => cell.lock().expect("addr cell").clone(),
        None => cfg.addr.clone(),
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Client connections driven.
    pub clients: u32,
    /// Documents multiplexed per connection.
    pub docs: u32,
    /// Per-document agreed digests at convergence (empty otherwise),
    /// indexed by document id.
    pub doc_digests: Vec<u64>,
    /// Cooperative requests put on the wire.
    pub coop_sent: u64,
    /// Administrative proposals put on the wire.
    pub proposals_sent: u64,
    /// Ops refused by `Check_Local` before sending.
    pub denied_local: u64,
    /// Requests whose flag settled `Valid`.
    pub resolved_valid: u64,
    /// Requests whose flag settled `Invalid` (retroactively undone).
    pub resolved_invalid: u64,
    /// `true` when every replica digest agreed at quiescence.
    pub converged: bool,
    /// The agreed replica digest (0 when not converged).
    pub replica_digest: u64,
    /// Events captured in the shared journal.
    pub events_recorded: usize,
    /// Events lost to ring overflow (0 = complete journal).
    pub events_overflowed: u64,
    /// Request spans `dce-trace` built from the journal.
    pub request_spans: usize,
    /// `true` when the merged happens-before trace is acyclic.
    pub trace_acyclic: bool,
}

#[derive(Debug, Default, Clone)]
struct Progress {
    sent: u64,
    outstanding: usize,
    unacked: bool,
    idle: bool,
    /// Per-document replica digests, indexed by document id.
    digests: Vec<u64>,
    /// Component hashes (doc, policy, admin log, flags) backing each
    /// digest, printed in the divergence report to pinpoint the layer
    /// at fault.
    parts: Vec<[u64; 4]>,
}

struct ClientShared {
    progress: Mutex<Progress>,
    error: Mutex<Option<String>>,
}

#[derive(Debug, Default)]
struct ClientOut {
    coop_sent: u64,
    proposals_sent: u64,
    denied_local: u64,
    resolved_valid: u64,
    resolved_invalid: u64,
    /// Final (sorted) per-document request-flag tables, compared across
    /// clients in the divergence report — the usual culprit when digests
    /// disagree.
    flags: Vec<(u64, RequestId, Flag)>,
}

/// A frame-speaking TCP connection with non-blocking reads and a
/// buffered, retrying writer.
struct FrameConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
}

impl FrameConn {
    fn connect(addr: &str, wait: Duration) -> Result<FrameConn, String> {
        let deadline = Instant::now() + wait;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                    return Ok(FrameConn { stream, decoder: FrameDecoder::new(), out: Vec::new() });
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(format!("connect {addr}: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    fn queue(&mut self, frame: &Frame<Char>) {
        self.out.extend_from_slice(&encode_frame(frame));
    }

    fn flush(&mut self) -> Result<(), String> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Drains readable bytes into complete frames. `Ok(false)` when the
    /// peer closed the connection cleanly.
    fn read_frames(&mut self, into: &mut Vec<Frame<Char>>) -> Result<bool, String> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        loop {
            match self.decoder.next::<Char>() {
                Ok(Some(f)) => into.push(f),
                Ok(None) => break,
                Err(e) => return Err(format!("bad frame from server: {e}")),
            }
        }
        Ok(true)
    }

    /// Sends `request` and waits (bounded) for a frame `want` accepts.
    fn round_trip<T>(
        &mut self,
        request: &Frame<Char>,
        wait: Duration,
        want: impl Fn(&Frame<Char>) -> Option<T>,
    ) -> Result<T, String> {
        self.queue(request);
        let deadline = Instant::now() + wait;
        let mut frames = Vec::new();
        loop {
            self.flush()?;
            if !self.read_frames(&mut frames)? {
                return Err("server closed the control connection".into());
            }
            for f in frames.drain(..) {
                if let Some(t) = want(&f) {
                    return Ok(t);
                }
            }
            if Instant::now() >= deadline {
                return Err("control request timed out".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

struct Client {
    user: u32,
    quota: u64,
    cfg: LoadgenConfig,
    obs: ObsHandle,
    shared: Arc<ClientShared>,
    stop: Arc<AtomicBool>,
    start: Arc<Barrier>,
}

/// Re-dials the server (which may have restarted on a new address),
/// re-`Hello`s, and restarts every stream in a new epoch so unacked and
/// unsent traffic carries over. Retries until connected, the run stops,
/// or the client's overall timeout elapses.
fn reconnect_client(
    c: &Client,
    conn: &mut FrameConn,
    endpoints: &mut HashMap<DocumentId, Endpoint<Char>>,
    now_ms: u64,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(c.cfg.timeout_s);
    loop {
        if c.stop.load(Ordering::Relaxed) {
            return Err("run stopped while reconnecting".into());
        }
        if Instant::now() >= deadline {
            return Err("reconnect timed out".into());
        }
        let Ok(mut fresh) = FrameConn::connect(&addr_of(&c.cfg), Duration::from_secs(2)) else {
            continue;
        };
        let hello = fresh.round_trip(
            &Frame::Hello { session: c.cfg.session, user: c.user },
            Duration::from_secs(2),
            |f| matches!(f, Frame::Welcome { .. }).then_some(()),
        );
        if hello.is_err() {
            continue;
        }
        for endpoint in endpoints.values_mut() {
            endpoint.restart_stream_to(0, now_ms);
        }
        *conn = fresh;
        return Ok(());
    }
}

fn client_main(c: Client) -> Result<ClientOut, String> {
    // With an `addr_cell` the server may die while this client is still
    // mid-Hello (the kill/restart test stops the first incarnation
    // ~100 ms in): keep re-dialing until welcomed instead of failing.
    let reconnect = c.cfg.addr_cell.is_some();
    let hello_deadline = Instant::now() + Duration::from_secs(c.cfg.timeout_s);
    let mut conn = loop {
        let welcomed =
            FrameConn::connect(&addr_of(&c.cfg), Duration::from_secs(10)).and_then(|mut conn| {
                conn.round_trip(
                    &Frame::Hello { session: c.cfg.session, user: c.user },
                    Duration::from_secs(10),
                    |f| matches!(f, Frame::Welcome { .. }).then_some(()),
                )
                .map(|()| conn)
            });
        match welcomed {
            Ok(conn) => break conn,
            Err(e) if reconnect && Instant::now() < hello_deadline => {
                eprintln!("dce-loadgen: user {}: initial hello failed ({e}), retrying", c.user);
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    };

    let docs = u64::from(c.cfg.docs.max(1));
    let engine: Engine<Char> = Engine::new_user(c.user, 0).with_observability(c.obs.clone());
    engine
        .create_documents((0..docs).map(|d| {
            (DocumentId::new(d), CharDocument::from_str(&c.cfg.doc), initial_policy(c.cfg.clients))
        }))
        .expect("fresh engine hosts no documents yet");
    let rto = ServerConfig::default().rto_ms;
    let mut endpoints: HashMap<DocumentId, Endpoint<Char>> = (0..docs)
        .map(|d| {
            let reliable = ReliableConfig { initial_rto_ms: rto, max_rto_ms: rto * 16 };
            (DocumentId::new(d), Endpoint::new(c.user as usize, reliable))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(c.cfg.seed ^ (0x9E37_79B9 * u64::from(c.user)));
    let mut out = ClientOut::default();
    // Coop requests whose flag is still `Tentative`.
    let mut outstanding: HashSet<(DocumentId, RequestId)> = HashSet::new();
    let origin = Instant::now();

    // Everyone is welcomed before anyone edits: the server relays only
    // to members it has seen, so the fan-out set must be complete first.
    c.start.wait();

    let mut next_op = Instant::now();
    let mut frames = Vec::new();
    while !c.stop.load(Ordering::Relaxed) {
        let mut worked = false;
        let now_ms = origin.elapsed().as_millis() as u64;

        if out.coop_sent + out.proposals_sent + out.denied_local < c.quota
            && Instant::now() >= next_op
        {
            generate_one(
                &engine,
                &mut endpoints,
                &mut conn,
                &mut rng,
                &c.cfg,
                &mut out,
                &mut outstanding,
                now_ms,
            )?;
            next_op = Instant::now() + think_gap(&mut rng, c.cfg.think_ms);
            worked = true;
        }

        let alive = match conn.read_frames(&mut frames) {
            Ok(alive) => alive,
            Err(e) if reconnect => {
                eprintln!("dce-loadgen: user {}: connection lost ({e}), reconnecting", c.user);
                false
            }
            Err(e) => return Err(e),
        };
        if !alive {
            if !reconnect {
                return Err("server closed the connection mid-run".into());
            }
            frames.clear();
            reconnect_client(&c, &mut conn, &mut endpoints, now_ms)?;
            continue;
        }
        for frame in frames.drain(..) {
            worked = true;
            match frame {
                Frame::Data { doc, src: _, epoch, seq, ack_epoch, ack, msg } => {
                    let endpoint = endpoints
                        .get_mut(&doc)
                        .ok_or_else(|| format!("server sent data for unknown {doc}"))?;
                    endpoint.on_ack(0, ack_epoch, ack, now_ms);
                    let outcome = endpoint.on_data(0, epoch, seq, msg);
                    for m in outcome.deliverable {
                        engine
                            .receive(doc, (*m).clone())
                            .map_err(|e| format!("user {}: {doc}: receive: {e}", c.user))?;
                    }
                    let (ack_epoch, cum) = endpoint.ack_for(0);
                    conn.queue(&Frame::Ack { doc, from: c.user, epoch: ack_epoch, cum });
                }
                Frame::Ack { doc, epoch, cum, .. } => {
                    endpoints
                        .get_mut(&doc)
                        .ok_or_else(|| format!("server acked unknown {doc}"))?
                        .on_ack(0, epoch, cum, now_ms);
                }
                Frame::Welcome { .. } => {}
                other => return Err(format!("unexpected frame for a client: {other:?}")),
            }
        }

        // Resolve finished requests: a flag that left `Tentative` counts
        // the op as settled (compaction may already have reclaimed it).
        outstanding.retain(|&(doc, id)| {
            match engine.with(doc, |site| site.fate(id)).flatten() {
                Some(Flag::Valid) => out.resolved_valid += 1,
                Some(Flag::Invalid) => out.resolved_invalid += 1,
                _ => return true,
            }
            worked = true;
            false
        });

        for (&doc, endpoint) in endpoints.iter_mut() {
            if matches!(endpoint.next_deadline(), Some(d) if d <= now_ms) {
                for (_, pkt) in endpoint.due_retransmissions(now_ms) {
                    conn.queue(&Frame::from_packet(doc, pkt));
                    worked = true;
                }
            }
        }
        if let Err(e) = conn.flush() {
            if !reconnect {
                return Err(e);
            }
            eprintln!("dce-loadgen: user {}: flush failed ({e}), reconnecting", c.user);
            reconnect_client(&c, &mut conn, &mut endpoints, now_ms)?;
            continue;
        }

        let done_sending = out.coop_sent + out.proposals_sent + out.denied_local >= c.quota;
        let unacked = endpoints.values().any(Endpoint::has_unacked);
        let idle = done_sending && outstanding.is_empty() && !unacked;
        {
            let mut p = c.shared.progress.lock().expect("progress lock");
            p.sent = out.coop_sent + out.proposals_sent;
            p.outstanding = outstanding.len();
            p.unacked = unacked;
            p.idle = idle;
            if idle {
                p.digests = (0..docs)
                    .map(|d| engine.replica_digest(DocumentId::new(d)).expect("doc hosted"))
                    .collect();
                p.parts = (0..docs)
                    .map(|d| {
                        engine
                            .with(DocumentId::new(d), |site| site.replica_digest_parts())
                            .expect("doc hosted")
                    })
                    .collect();
            }
        }
        if !worked {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    for d in 0..docs {
        let doc = DocumentId::new(d);
        let mut flags: Vec<(u64, RequestId, Flag)> = engine
            .with(doc, |site| site.flags().collect::<Vec<_>>())
            .expect("doc hosted")
            .into_iter()
            .map(|(id, flag)| (d, id, flag))
            .collect();
        flags.sort_unstable_by_key(|(_, id, _)| *id);
        out.flags.extend(flags);
    }
    conn.queue(&Frame::Bye { user: c.user });
    let _ = conn.flush();
    Ok(out)
}

fn think_gap(rng: &mut StdRng, think_ms: u64) -> Duration {
    if think_ms == 0 {
        return Duration::ZERO;
    }
    Duration::from_millis(rng.gen_range(think_ms / 2..=think_ms + think_ms / 2))
}

/// Skewed document choice: the minimum of two uniform draws, linearly
/// biased toward low ids — document 0 is the hot shard, the tail stays
/// warm. Degenerates to 0 for single-document runs.
fn pick_doc(rng: &mut StdRng, docs: u32) -> DocumentId {
    let docs = u64::from(docs.max(1));
    let a = rng.gen_range(0..docs);
    let b = rng.gen_range(0..docs);
    DocumentId::new(a.min(b))
}

#[allow(clippy::too_many_arguments)]
fn generate_one(
    engine: &Engine<Char>,
    endpoints: &mut HashMap<DocumentId, Endpoint<Char>>,
    conn: &mut FrameConn,
    rng: &mut StdRng,
    cfg: &LoadgenConfig,
    out: &mut ClientOut,
    outstanding: &mut HashSet<(DocumentId, RequestId)>,
    now_ms: u64,
) -> Result<(), String> {
    let mix = cfg.mix;
    let doc = pick_doc(rng, cfg.docs);
    let endpoint = endpoints.get_mut(&doc).expect("picked a hosted doc");
    let roll = rng.gen_range(0..mix.total().expect("mix weights sum within u32"));
    if roll >= mix.ins + mix.del + mix.up {
        let op = random_admin_op(rng, cfg);
        match engine.with(doc, |site| site.propose_admin(op)).expect("doc hosted") {
            Ok(p) => {
                let pkt = endpoint.send(0, Arc::new(Message::Proposal(p)), now_ms);
                conn.queue(&Frame::from_packet(doc, pkt));
                out.proposals_sent += 1;
            }
            Err(e) => return Err(format!("propose_admin: {e}")),
        }
        return Ok(());
    }
    let content = engine.document(doc).expect("doc hosted");
    let len = content.len();
    let letter = char::from(b'a' + rng.gen_range(0..26) as u8);
    let op = if len == 0 || roll < mix.ins {
        Op::ins(rng.gen_range(1..=len + 1), letter)
    } else if roll < mix.ins + mix.del {
        let pos = rng.gen_range(1..=len);
        Op::del(pos, *content.get(pos).expect("in range"))
    } else {
        let pos = rng.gen_range(1..=len);
        Op::up(pos, *content.get(pos).expect("in range"), letter)
    };
    match engine.with(doc, |site| site.generate(op)).expect("doc hosted") {
        Ok(q) => {
            outstanding.insert((doc, q.ot.id));
            let pkt = endpoint.send(0, Arc::new(Message::Coop(q)), now_ms);
            conn.queue(&Frame::from_packet(doc, pkt));
            out.coop_sent += 1;
        }
        Err(CoreError::AccessDenied { .. }) => out.denied_local += 1,
        Err(e) => return Err(format!("generate: {e}")),
    }
    Ok(())
}

/// A benign or (with probability `restrictive_pct`) restrictive
/// administrative proposal. Restrictive ones revoke a single dynamic
/// right from one user on a narrow position range — enough to trigger
/// `Check_Remote` denials and retroactive undo without starving the
/// whole run of grants.
fn random_admin_op(rng: &mut StdRng, cfg: &LoadgenConfig) -> AdminOp {
    if rng.gen_range(0..100) < cfg.restrictive_pct {
        let user = rng.gen_range(1..=cfg.clients);
        let right = Right::DYNAMIC[rng.gen_range(0..Right::DYNAMIC.len())];
        let from = rng.gen_range(1..=64usize);
        let to = from + rng.gen_range(0..3usize);
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::revoke(
                Subject::User(user),
                DocObject::Range { from, to },
                [right],
            ),
        }
    } else if rng.gen_range(0..2) == 0 {
        let user = rng.gen_range(1..=cfg.clients);
        let right = Right::DYNAMIC[rng.gen_range(0..Right::DYNAMIC.len())];
        // Appending a grant at position 0 shadows nothing harmful: the
        // policy is first-match and already permissive.
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::grant(Subject::User(user), DocObject::Document, [right]),
        }
    } else {
        let members = (1..=cfg.clients).filter(|_| rng.gen_range(0..2) == 0).collect();
        AdminOp::SetGroup { name: format!("g{}", rng.gen_range(0..4u32)), members }
    }
}

/// Runs one load session against a server at `cfg.addr`. The server
/// must already be listening and configured for at least `cfg.clients`
/// collaborators with the same `doc`.
pub fn run(cfg: &LoadgenConfig) -> Result<RunReport, String> {
    let obs = ObsHandle::recording(1 << 17);
    obs.use_wall_time();
    dce_trace::flight::arm(&obs, cfg.seed, cfg.results_dir.clone());

    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(cfg.clients as usize));
    let mut shareds = Vec::new();
    let mut handles = Vec::new();
    // The op quota is split over the *active* clients; the last
    // `idle_clients` users join, ack and converge but never send.
    let active = u64::from(cfg.clients.saturating_sub(cfg.idle_clients).max(1));
    let per_client = cfg.ops / active;
    let remainder = cfg.ops % active;
    for user in 1..=cfg.clients {
        let shared = Arc::new(ClientShared {
            progress: Mutex::new(Progress::default()),
            error: Mutex::new(None),
        });
        shareds.push(Arc::clone(&shared));
        let client = Client {
            user,
            quota: if u64::from(user) > active {
                0
            } else {
                per_client + u64::from(u64::from(user) <= remainder)
            },
            cfg: cfg.clone(),
            obs: obs.clone(),
            shared,
            stop: Arc::clone(&stop),
            start: Arc::clone(&start),
        };
        let errs = Arc::clone(&shareds[user as usize - 1]);
        handles.push(std::thread::spawn(move || {
            let result = client_main(client);
            if let Err(e) = &result {
                *errs.error.lock().expect("error lock") = Some(e.clone());
            }
            result
        }));
    }

    let deadline = Instant::now() + Duration::from_secs(cfg.timeout_s);
    let mut control = FrameConn::connect(&addr_of(cfg), Duration::from_secs(10))
        .map_err(|e| format!("control connection: {e}"))?;

    let docs = cfg.docs.max(1);
    let mut stable_polls = 0u32;
    let mut agreed_digests: Vec<u64> = Vec::new();
    let converged = loop {
        std::thread::sleep(Duration::from_millis(50));
        for shared in &shareds {
            if let Some(e) = shared.error.lock().expect("error lock").clone() {
                stop.store(true, Ordering::Relaxed);
                for h in handles {
                    let _ = h.join();
                }
                return Err(format!("client failed: {e}"));
            }
        }
        let progress: Vec<Progress> =
            shareds.iter().map(|s| s.progress.lock().expect("progress lock").clone()).collect();
        let all_idle = progress.iter().all(|p| p.idle);
        if !all_idle {
            stable_polls = 0;
            if Instant::now() >= deadline {
                break false;
            }
            continue;
        }
        // Poll the server's digest for every document: convergence is a
        // per-document property, asserted across all of them.
        let mut server: Vec<(u64, bool)> = Vec::with_capacity(docs as usize);
        for d in 0..u64::from(docs) {
            let want_doc = DocumentId::new(d);
            let reply = control.round_trip(
                &Frame::DigestRequest { session: cfg.session, doc: want_doc },
                Duration::from_secs(5),
                |f| match f {
                    Frame::DigestReply { doc, digest, idle, .. } if *doc == want_doc => {
                        Some((*digest, *idle))
                    }
                    _ => None,
                },
            );
            match reply {
                Ok(r) => server.push(r),
                Err(_) if cfg.addr_cell.is_some() => {
                    // The server may be mid-restart: re-dial the control
                    // connection (possibly at a new address) and let the
                    // outer loop poll again.
                    if let Ok(fresh) = FrameConn::connect(&addr_of(cfg), Duration::from_secs(2)) {
                        control = fresh;
                    }
                    break;
                }
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(format!("digest poll ({want_doc}): {e}"));
                }
            }
        }
        if server.len() != docs as usize {
            stable_polls = 0;
            if Instant::now() >= deadline {
                break false;
            }
            continue;
        }
        let server_idle = server.iter().all(|&(_, idle)| idle);
        let agree = server_idle
            && progress.iter().all(|p| {
                p.digests.len() == server.len()
                    && p.digests.iter().zip(server.iter()).all(|(&c, &(s, _))| c == s)
            });
        if agree {
            stable_polls += 1;
            agreed_digests = server.iter().map(|&(d, _)| d).collect();
            if stable_polls >= 2 {
                break true;
            }
        } else {
            stable_polls = 0;
        }
        if Instant::now() >= deadline {
            if !agree {
                let digests: Vec<Vec<u64>> = progress.iter().map(|p| p.digests.clone()).collect();
                let parts: Vec<Vec<[u64; 4]>> = progress.iter().map(|p| p.parts.clone()).collect();
                let reason = format!(
                    "socket session diverged or stalled after {}s: per-doc server digests {:?} \
                     (idle {}), per-doc client digests {:?}, client [doc, policy, admin_log, \
                     flags] parts {:?}",
                    cfg.timeout_s, server, server_idle, digests, parts
                );
                eprintln!("dce-loadgen: {reason}");
                obs.failure(&reason);
            }
            break false;
        }
    };
    stop.store(true, Ordering::Relaxed);
    let mut outs = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(out)) => outs.push(out),
            Ok(Err(e)) => return Err(format!("client failed: {e}")),
            Err(_) => return Err("client thread panicked".into()),
        }
    }
    if !converged {
        report_flag_divergence(&outs);
    }

    let mut report = RunReport {
        clients: cfg.clients,
        docs,
        doc_digests: if converged { agreed_digests.clone() } else { Vec::new() },
        coop_sent: 0,
        proposals_sent: 0,
        denied_local: 0,
        resolved_valid: 0,
        resolved_invalid: 0,
        converged,
        // A whole-run digest: per-document digests folded in id order.
        replica_digest: if converged {
            agreed_digests
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &d| (h ^ d).wrapping_mul(0x0000_0100_0000_01B3))
        } else {
            0
        },
        events_recorded: 0,
        events_overflowed: obs.overflowed(),
        request_spans: 0,
        trace_acyclic: true,
    };
    for out in outs {
        report.coop_sent += out.coop_sent;
        report.proposals_sent += out.proposals_sent;
        report.denied_local += out.denied_local;
        report.resolved_valid += out.resolved_valid;
        report.resolved_invalid += out.resolved_invalid;
    }

    // The journal and trace pipeline run unchanged over the socket
    // path: merge the shared wall-clock journal and roll it into spans.
    let events = obs.events();
    report.events_recorded = events.len();
    let trace = merge_events(&events);
    report.trace_acyclic = trace.is_acyclic();
    report.request_spans = build_spans(&trace).spans.len();
    Ok(report)
}

/// On divergence, prints where the clients' flag tables disagree —
/// entries present at one replica but not another, or flagged
/// differently. This is the layer that diverges when anything does (the
/// document, policy and admin log are totally ordered through the
/// admin), so the diff usually names the exact request at fault.
fn report_flag_divergence(outs: &[ClientOut]) {
    let Some(reference) = outs.first() else { return };
    let base: HashMap<(u64, RequestId), Flag> =
        reference.flags.iter().map(|&(d, id, f)| ((d, id), f)).collect();
    for (i, out) in outs.iter().enumerate().skip(1) {
        let theirs: HashMap<(u64, RequestId), Flag> =
            out.flags.iter().map(|&(d, id, f)| ((d, id), f)).collect();
        for ((d, id), flag) in &theirs {
            match base.get(&(*d, *id)) {
                None => eprintln!(
                    "dce-loadgen: flag diff: doc{d} {id:?} = {flag:?} only at client {i}"
                ),
                Some(b) if b != flag => eprintln!(
                    "dce-loadgen: flag diff: doc{d} {id:?} is {b:?} at client 0 but {flag:?} at client {i}"
                ),
                Some(_) => {}
            }
        }
        for ((d, id), flag) in &base {
            if !theirs.contains_key(&(*d, *id)) {
                eprintln!(
                    "dce-loadgen: flag diff: doc{d} {id:?} = {flag:?} only at client 0, missing at client {i}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Mix;

    #[test]
    fn mix_parse_rejects_weights_whose_sum_overflows() {
        assert!(Mix::parse("4294967295:1:0:0").is_none());
        assert!(Mix::parse("4294967295:2:0:0").is_none());
        let mix = Mix::parse("50:25:15:10").expect("the default mix parses");
        assert_eq!((mix.ins, mix.del, mix.up, mix.admin), (50, 25, 15, 10));
    }
}
