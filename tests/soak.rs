//! Long-soak bounded-memory battery: a three-engine session (admin +
//! two users) runs a large update-heavy workload with the always-on
//! stability-horizon compactor every engine runs, and the test gates on the
//! `dce-obs` metrics registry — canonical-log and admin-log lengths
//! must stay below a fixed watermark multiple for the whole run — and
//! on process RSS staying flat between the 25% and 100% checkpoints.
//!
//! The workload is deliberately the worst case for every structure the
//! compactor bounds: updates grow per-cell provenance chains (collapsed
//! at the horizon), every cooperative op earns a validation (admin-log
//! churn, pruned as non-restrictive), and the one restrictive
//! revocation happens early so its permanent admin-log residue is a
//! constant. Inserts are confined to the prologue because tombstones
//! are retained by design — the soak measures what compaction claims to
//! bound, not what the paper's model retains.
//!
//! Op count scales with `SOAK_OPS` (default 10_000; CI and manual soaks
//! run e.g. `SOAK_OPS=1000000 cargo test --release --test soak`).

use dce::core::{DocumentId, Engine, Message, COMPACT_WATERMARK as WM};
use dce::document::{Char, CharDocument, Op};
use dce::obs::ObsHandle;
use dce::policy::{AdminOp, Authorization, DocObject, Policy, Right, Sign, Subject};

/// Every engine's logs must stay under this at every sample (`WM` is the
/// engines' default compactor watermark). The
/// trigger point is `post-compaction length + WM` and a heartbeat round
/// is at most `HB_EVERY` ops behind, so 4×WM has headroom for the
/// in-flight burst while still failing fast if pruning regresses.
const LOG_BOUND: u64 = 4 * WM as u64;
/// All-to-all heartbeat cadence, in ops.
const HB_EVERY: usize = 16;
/// Allowed RSS drift between the 25% and 100% checkpoints. Generous
/// against allocator noise, but far below what any unbounded structure
/// (log entries, flag rows, chain `saw` sets) accumulates over the
/// back three-quarters of even the default run.
const RSS_SLACK: u64 = 16 * 1024 * 1024;

fn doc() -> DocumentId {
    DocumentId::new(1)
}

fn soak_ops() -> usize {
    std::env::var("SOAK_OPS").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000)
}

/// Resident set size in bytes from `/proc/self/statm` (0 where procfs
/// is unavailable — the RSS gate then degenerates to `0 <= slack`).
fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm.split_whitespace().nth(1).and_then(|f| f.parse().ok()).unwrap_or(0);
    pages * 4096
}

struct Member {
    engine: Engine<Char>,
    obs: ObsHandle,
    /// Running maxima of the post-drain log-length gauges.
    peak_log: u64,
    peak_admin: u64,
}

impl Member {
    fn new(user: u32) -> Self {
        let obs = ObsHandle::metrics_only();
        let engine = if user == 0 { Engine::new_admin(0) } else { Engine::new_user(user, 0) };
        let engine = engine.with_observability(obs.clone());
        Member { engine, obs, peak_log: 0, peak_admin: 0 }
    }

    /// Folds the current registry gauges into the running peaks.
    fn sample(&mut self) {
        let report = self.obs.snapshot();
        let gauge = |name: &str| report.gauges.get(name).copied().unwrap_or(0);
        self.peak_log = self.peak_log.max(gauge("site.log_len.doc1"));
        self.peak_admin = self.peak_admin.max(gauge("site.admin_log_len.doc1"));
    }

    fn compactions(&self) -> u64 {
        self.obs.snapshot().counters.get("engine.auto_compactions").copied().unwrap_or(0)
    }
}

#[test]
fn million_op_session_keeps_logs_and_rss_flat() {
    let ops = soak_ops();
    let d0 = CharDocument::from_str("soak-document-0!");
    let policy = Policy::permissive([0, 1, 2]);

    let mut members: Vec<Member> = (0..3).map(Member::new).collect();
    for m in &members {
        m.engine.create_document(doc(), d0.clone(), policy.clone()).unwrap();
    }

    // Local mirror of the (fixed-length) document. Delivery below is
    // synchronous and updates are never denied under this policy, so
    // the mirror stays exact and spares a per-op document render.
    let mut text: Vec<char> = "soak-document-0!".chars().collect();

    // Prologue: the run's only restrictive administration, so its
    // permanent admin-log residue is a constant, not a function of op
    // count. Revoke then restore user 2's Delete right (no deletes are
    // ever generated, so nothing is invalidated).
    for sign in [Sign::Minus, Sign::Plus] {
        let auth = Authorization::new(Subject::User(2), DocObject::Document, [Right::Delete], sign);
        let r = members[0].engine.admin_generate(doc(), AdminOp::AddAuth { pos: 0, auth }).unwrap();
        for m in &members[1..] {
            m.engine.receive(doc(), Message::Admin(r.clone())).unwrap();
        }
    }

    let mut checkpoints: Vec<u64> = Vec::new();
    for k in 0..ops {
        // One update from an alternating author, delivered everywhere.
        let author = 1 + k % 2;
        let pos = 1 + k % text.len();
        let cur = text[pos - 1];
        let new = (b'a' + (k % 26) as u8) as char;
        let q = members[author].engine.generate(doc(), Op::up(pos, cur, new)).unwrap();
        text[pos - 1] = new;
        for (i, m) in members.iter().enumerate() {
            if i != author {
                m.engine.receive(doc(), q.clone()).unwrap();
            }
        }
        // The admin's validation fans back out to the users.
        for v in members[0].engine.drain_outbox(doc()) {
            for m in &members[1..] {
                m.engine.receive(doc(), v.clone()).unwrap();
            }
        }

        if (k + 1) % HB_EVERY == 0 {
            // Everything above is settled, so each heartbeat carries the
            // full clock and the receivers' own clocks dominate it — the
            // compactor (and its chain-collapse gate) can always fire.
            let beats: Vec<Message<Char>> = members
                .iter()
                .map(|m| m.engine.with(doc(), |s| s.make_heartbeat()).unwrap())
                .collect();
            for (i, hb) in beats.iter().enumerate() {
                for (j, m) in members.iter().enumerate() {
                    if i != j {
                        m.engine.receive(doc(), hb.clone()).unwrap();
                    }
                }
            }
            for m in members.iter_mut() {
                m.sample();
            }
        }

        // RSS checkpoints at 25/50/75/100% of the run.
        if (k + 1) % (ops / 4).max(1) == 0 {
            checkpoints.push(rss_bytes());
        }
    }

    // ---- Bounded logs, judged from the metrics registry. ----
    for (i, m) in members.iter_mut().enumerate() {
        m.sample();
        assert!(
            m.peak_log < LOG_BOUND,
            "member {i}: canonical log unbounded (peak {} >= {LOG_BOUND})",
            m.peak_log
        );
        assert!(
            m.peak_admin < LOG_BOUND,
            "member {i}: admin log unbounded (peak {} >= {LOG_BOUND})",
            m.peak_admin
        );
        assert!(m.peak_log > 0, "member {i}: log-length gauge never observed");
        assert!(m.compactions() >= 1, "member {i}: the always-on compactor never fired");
    }

    // ---- Flat RSS between the 25% and 100% checkpoints. ----
    assert_eq!(checkpoints.len(), 4, "expected 4 RSS checkpoints");
    let (first, last) = (checkpoints[0], checkpoints[3]);
    assert!(
        last <= first + RSS_SLACK,
        "RSS grew {} -> {} over the soak (checkpoints {:?})",
        first,
        last,
        checkpoints
    );

    // ---- The session still converged. ----
    let expect: String = text.iter().collect();
    let digests: Vec<u64> =
        members.iter().map(|m| m.engine.replica_digest(doc()).unwrap()).collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "replica digests diverged: {digests:?}");
    for (i, m) in members.iter().enumerate() {
        assert_eq!(
            m.engine.document(doc()).unwrap().to_string(),
            expect,
            "member {i} document diverged from the mirror"
        );
    }
}
