//! Spans recorded from the benchmark's own side of each layer boundary.
//!
//! Every timed call into a layer becomes one [`Span`]; the spans of one
//! measured operation hang off a root `op` span (its id is the op's
//! `RequestId`). Spans live in one pre-allocated buffer and are written
//! out when the workload ends. A span's *self time* is its duration
//! minus the part of that interval its children cover.

use std::io::Write;
use std::path::Path;

/// "No parent" / "no operation".
pub const NONE: u32 = u32::MAX;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    /// Root: intended start → flag left `Tentative` at the origin.
    Op,
    /// Intended start → the generator actually ran.
    SchedWait,
    /// `Engine::generate`.
    CoreGenerate,
    /// `Endpoint::send`.
    ReliableSend,
    /// `encode_frame`.
    FrameEncode,
    /// `TcpStream::write` that put the op's last byte on the socket.
    WireWrite,
    /// Last byte written → the frame carrying the settling message
    /// decoded (children: the `wire.read` and `net.frame.decode` that
    /// surfaced it; self time is the server's and the kernel's).
    ServerRtt,
    /// `TcpStream::read` that returned bytes.
    WireRead,
    /// `FrameDecoder::next` that produced a frame.
    FrameDecode,
    /// `Endpoint::on_ack` + `Endpoint::on_data`.
    ReliableOnData,
    /// `Engine::receive` of an administrative request (validations
    /// included — the one that settles an op is in its tree).
    CoreReceiveAdmin,
    /// `Engine::receive` of the other member's cooperative request.
    CoreReceiveCoop,
    /// The `Site::flag_of` poll that saw the flag settle.
    SettlePoll,
    /// The explicit `Engine::check_local` probe (traced runs only).
    PolicyCheckLocal,
}

/// Number of [`Name`] variants.
pub const NAMES: usize = Name::PolicyCheckLocal as usize + 1;

impl Name {
    /// The span's name in the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::SchedWait => "sched_wait",
            Name::CoreGenerate => "core.generate",
            Name::ReliableSend => "net.reliable.send",
            Name::FrameEncode => "net.frame.encode",
            Name::WireWrite => "wire.write",
            Name::ServerRtt => "server.rtt",
            Name::WireRead => "wire.read",
            Name::FrameDecode => "net.frame.decode",
            Name::ReliableOnData => "net.reliable.on_data",
            Name::CoreReceiveAdmin => "core.receive_admin",
            Name::CoreReceiveCoop => "core.receive_coop",
            Name::SettlePoll => "settle_poll",
            Name::PolicyCheckLocal => "policy.check_local",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Where it was recorded.
    pub name: Name,
    /// Index of the parent span in the buffer, or [`NONE`].
    pub parent: u32,
    /// Start, nanoseconds on the run's clock.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span itself, so a child that
/// overhangs its parent or overlaps a sibling is not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = kids.get_mut(s.parent as usize) {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                list.push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, list)| {
            list.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for &(lo, hi) in list.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// The span buffer of one run. Disabled, every call is one branch.
///
/// Two sinks: [`Tracer::record`] keeps the duration of *every* timed
/// call, by layer (what the per-layer `_p50` / `_p99` / `_busy_share`
/// are computed from), and [`Tracer::push`] adds a span to the tree of
/// the one operation the call served (a read that surfaced three
/// validations is recorded once and pushed into three trees).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    durations: [Vec<u32>; NAMES],
    /// `(root span index, "site#seq")` for every root.
    roots: Vec<(u32, (u32, u64))>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: capacity > 0,
            spans: Vec::with_capacity(capacity),
            durations: std::array::from_fn(|_| Vec::with_capacity(capacity / 8)),
            roots: Vec::with_capacity(capacity / 8),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the duration of one timed call into layer `name`.
    pub fn record(&mut self, name: Name, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let d = end_ns.saturating_sub(start_ns).min(u64::from(u32::MAX));
            self.durations[name as usize].push(d as u32);
        }
    }

    /// Every duration recorded for layer `name`, in call order.
    pub fn durations(&self, name: Name) -> &[u32] {
        &self.durations[name as usize]
    }

    /// Moves the end of span `at` (a root is opened at generation and
    /// closed when its flag settles).
    pub fn close(&mut self, at: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(at as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Adds one span to a tree and returns its index ([`NONE`] when
    /// disabled).
    pub fn push(&mut self, name: Name, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span { name, parent, start_ns, end_ns });
        (self.spans.len() - 1) as u32
    }

    /// Records the root span of operation `site#seq`.
    pub fn push_root(&mut self, id: (u32, u64), start_ns: u64, end_ns: u64) -> u32 {
        let at = self.push(Name::Op, NONE, start_ns, end_ns);
        if at != NONE {
            self.roots.push((at, id));
        }
        at
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the buffer as one JSON array of
    /// `{name, start_ns, end_ns, parent[, id]}` objects; `parent` is the
    /// index of the parent span in the array, `null` for none.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut ids = vec![None; self.spans.len()];
        for &(at, id) in &self.roots {
            ids[at as usize] = Some(id);
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, (s, id)) in self.spans.iter().zip(&ids).enumerate() {
            write!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
            match s.parent {
                NONE => write!(w, "null")?,
                p => write!(w, "{p}")?,
            }
            if let Some((site, seq)) = id {
                write!(w, ",\"id\":\"{site}#{seq}\"")?;
            }
            writeln!(w, "}}{}", if i + 1 == self.spans.len() { "" } else { "," })?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}
