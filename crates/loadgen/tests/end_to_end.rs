//! End-to-end: a real `dce-server` reactor on a loopback socket, four
//! concurrent load-generator clients, mixed cooperative and
//! administrative traffic (including restrictive proposals), and a
//! replica-digest convergence check across all five replicas.

use dce_loadgen::{run, LoadgenConfig, Mix};
use dce_server::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn boot_server(users: u32, doc: &str) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    boot_server_docs(users, doc, 1)
}

fn boot_server_docs(
    users: u32,
    doc: &str,
    docs: u32,
) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    boot_server_durable(users, doc, docs, None)
}

fn boot_server_durable(
    users: u32,
    doc: &str,
    docs: u32,
    data_dir: Option<std::path::PathBuf>,
) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let (addr, shutdown, handle, _) = boot_server_obs(users, doc, docs, data_dir);
    (addr, shutdown, handle)
}

fn boot_server_obs(
    users: u32,
    doc: &str,
    docs: u32,
    data_dir: Option<std::path::PathBuf>,
) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>, dce_obs::ObsHandle) {
    let mut server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        users,
        docs,
        doc: doc.into(),
        rto_ms: 60,
        journal: 1 << 14,
        data_dir,
        status_addr: None,
    })
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound").to_string();
    let obs = server.obs().clone();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("reactor runs");
    });
    (addr, shutdown, handle, obs)
}

#[test]
fn four_clients_converge_over_loopback_tcp() {
    let doc = "the quick brown fox jumps over the lazy dog";
    let (addr, shutdown, server) = boot_server(4, doc);
    let scratch = std::env::temp_dir().join(format!("dce-loadgen-e2e-{}", std::process::id()));
    let cfg = LoadgenConfig {
        addr,
        clients: 4,
        ops: 240,
        mix: Mix { ins: 50, del: 25, up: 15, admin: 10 },
        restrictive_pct: 25,
        think_ms: 0,
        seed: 42,
        doc: doc.into(),
        timeout_s: 60,
        results_dir: scratch.clone(),
        ..LoadgenConfig::default()
    };
    let report = run(&cfg).expect("load run completes");
    shutdown.store(true, Ordering::Relaxed);
    server.join().expect("server thread");

    assert!(report.converged, "replica digests disagreed at quiescence");
    assert_ne!(report.replica_digest, 0, "converged runs report the agreed digest");
    assert_eq!(
        report.coop_sent + report.proposals_sent + report.denied_local,
        cfg.ops,
        "open loop issues exactly the configured number of ops"
    );
    assert_eq!(
        report.resolved_valid + report.resolved_invalid,
        report.coop_sent,
        "every broadcast coop request settled Valid or Invalid"
    );
    assert!(report.proposals_sent > 0, "the mix exercises the proposal path");
    // The observability pipeline rode along unchanged: the shared
    // journal merged into an acyclic happens-before trace with one span
    // per broadcast cooperative request.
    assert!(report.trace_acyclic, "socket transport broke the causal trace");
    if report.events_overflowed == 0 {
        assert_eq!(report.request_spans as u64, report.coop_sent);
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn three_clients_converge_across_five_documents_on_one_connection() {
    // The sharded engine: every client multiplexes five documents over a
    // single TCP connection, picks documents with a skewed distribution,
    // and the run only converges when every document's digest agrees
    // across all replicas.
    let doc = "shared seed text";
    let (addr, shutdown, server) = boot_server_docs(3, doc, 5);
    let scratch = std::env::temp_dir().join(format!("dce-loadgen-multidoc-{}", std::process::id()));
    let cfg = LoadgenConfig {
        addr,
        clients: 3,
        docs: 5,
        ops: 180,
        mix: Mix { ins: 55, del: 25, up: 15, admin: 5 },
        restrictive_pct: 20,
        think_ms: 0,
        seed: 99,
        doc: doc.into(),
        timeout_s: 60,
        results_dir: scratch.clone(),
        ..LoadgenConfig::default()
    };
    let report = run(&cfg).expect("multi-document load run completes");
    shutdown.store(true, Ordering::Relaxed);
    server.join().expect("server thread");

    assert!(report.converged, "per-document replica digests disagreed at quiescence");
    assert_eq!(report.docs, 5);
    assert_eq!(report.doc_digests.len(), 5, "one agreed digest per document");
    assert!(
        report.doc_digests.iter().any(|&d| d != 0),
        "at least one document saw traffic and reports a digest"
    );
    assert_eq!(
        report.coop_sent + report.proposals_sent + report.denied_local,
        cfg.ops,
        "open loop issues exactly the configured number of ops"
    );
    assert_eq!(report.resolved_valid + report.resolved_invalid, report.coop_sent);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn an_idle_member_does_not_pin_the_logs() {
    // Two sessions on one server; the second has an *idle* member that
    // `Hello`s and acknowledges every relayed message but never edits.
    // An idle member speaks no heartbeats of its own, which used to pin
    // the stability horizon at zero — the administrator's canonical log
    // then grew by one entry per delivered op, forever. The server now
    // synthesizes heartbeats for fully-acked members and compacts past
    // a watermark, so the log stays bounded no matter how quiet a
    // member is.
    let doc = "idle hands";
    let (addr, shutdown, server, obs) = boot_server_obs(3, doc, 1, None);
    let scratch = std::env::temp_dir().join(format!("dce-loadgen-idle-{}", std::process::id()));
    let base = LoadgenConfig {
        addr,
        clients: 3,
        ops: 600,
        mix: Mix { ins: 60, del: 25, up: 15, admin: 0 },
        restrictive_pct: 0,
        think_ms: 0,
        seed: 21,
        doc: doc.into(),
        timeout_s: 120,
        results_dir: scratch.clone(),
        ..LoadgenConfig::default()
    };
    // Session 1: everyone active — a short warm-up wave sharing the
    // server with the session under test.
    let first = run(&LoadgenConfig { ops: 120, ..base.clone() }).expect("active session");
    assert!(first.converged, "all-active warm-up session diverged");
    // Session 2: one idle member and enough traffic for the combined
    // log to cross the server's compaction watermark (192) repeatedly.
    let report = run(&LoadgenConfig { session: 2, idle_clients: 1, seed: 22, ..base })
        .expect("idle-member session");
    shutdown.store(true, Ordering::Relaxed);
    server.join().expect("server thread");

    assert!(report.converged, "idle-member session diverged");
    assert_eq!(
        report.coop_sent + report.denied_local,
        600,
        "the two active clients issued the whole quota"
    );
    // The server's admin replica publishes its log lengths as gauges on
    // every drain; the final values reflect the session under test (it
    // ran last). Without horizon advancement the canonical log would
    // hold one entry per delivered coop (~600): bounded means a final
    // length at most the watermark plus a delivery's worth of slack.
    let snap = obs.snapshot();
    let log_len = snap.gauges.get("site.log_len").copied().unwrap_or(u64::MAX);
    let admin_len = snap.gauges.get("site.admin_log_len").copied().unwrap_or(u64::MAX);
    assert!(
        log_len + admin_len < 300,
        "idle member pinned the horizon: canonical log {log_len} + admin log {admin_len} \
         entries survive a 600-op session with a compaction watermark of 192"
    );
    assert!(
        snap.counters.get("server.compactions").copied().unwrap_or(0) >= 1,
        "the horizon pass never compacted anything"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn a_session_survives_a_disconnect_and_rejoin() {
    // Two back-to-back runs against the same server and session: the
    // second run re-Hellos the same users, forcing the server to
    // restart its (paused) streams in a new epoch and replay whatever
    // the departed members never acked.
    let doc = "reconnect me";
    let (addr, shutdown, server) = boot_server(3, doc);
    let scratch = std::env::temp_dir().join(format!("dce-loadgen-rejoin-{}", std::process::id()));
    let base = LoadgenConfig {
        addr,
        clients: 3,
        ops: 60,
        restrictive_pct: 0,
        think_ms: 0,
        seed: 7,
        doc: doc.into(),
        timeout_s: 60,
        results_dir: scratch.clone(),
        ..LoadgenConfig::default()
    };
    let first = run(&base).expect("first wave");
    assert!(first.converged, "first wave diverged");
    // Fresh client replicas cannot rejoin mid-history (there is no
    // snapshot transfer over TCP yet), so the second wave uses its own
    // session — while the first session's server state keeps its paused
    // streams without spinning the reactor (the pause/send fix).
    let second = run(&LoadgenConfig { session: 2, seed: 8, ..base }).expect("second wave");
    assert!(second.converged, "second session diverged");
    shutdown.store(true, Ordering::Relaxed);
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn a_restarted_durable_server_reconverges_to_the_control_run_digests() {
    // A single writer makes the workload a pure function of the seed:
    // the op stream never depends on message interleavings, so a run
    // that survives a server kill + restart must land on *exactly* the
    // per-document digests of a never-killed control run. The mix holds
    // no proposals — proposals are not relayed, so their sequencing is
    // the only interleaving-dependent piece of a single-writer run.
    let doc = "kill me and I rise from the journal";
    let stamp = std::process::id();
    let scratch = std::env::temp_dir().join(format!("dce-loadgen-restart-{stamp}"));
    let data_dir = std::env::temp_dir().join(format!("dce-server-data-{stamp}"));
    let _ = std::fs::remove_dir_all(&data_dir);
    let workload = |addr: String| LoadgenConfig {
        addr,
        clients: 1,
        docs: 3,
        ops: 150,
        mix: Mix { ins: 55, del: 25, up: 20, admin: 0 },
        restrictive_pct: 0,
        think_ms: 2,
        seed: 4242,
        doc: doc.into(),
        timeout_s: 60,
        results_dir: scratch.clone(),
        ..LoadgenConfig::default()
    };

    // Control: a plain in-memory server, never killed.
    let control_digests = {
        let (addr, shutdown, server) = boot_server_docs(1, doc, 3);
        let report = run(&workload(addr)).expect("control run completes");
        shutdown.store(true, Ordering::Relaxed);
        server.join().expect("server thread");
        assert!(report.converged, "control run diverged");
        report.doc_digests
    };

    // Durable run: kill the server mid-traffic, restart it from the
    // same data_dir on a fresh port, and point the clients at it.
    let (addr, shutdown, server) = boot_server_durable(1, doc, 3, Some(data_dir.clone()));
    let addr_cell = Arc::new(std::sync::Mutex::new(addr));
    let cfg = LoadgenConfig { addr_cell: Some(Arc::clone(&addr_cell)), ..workload(String::new()) };
    let loadgen = std::thread::spawn(move || run(&cfg));

    // Let some traffic land on disk, then kill the first incarnation.
    std::thread::sleep(std::time::Duration::from_millis(120));
    shutdown.store(true, Ordering::Relaxed);
    server.join().expect("first incarnation");

    // Restart from the journal alone and publish the new address.
    let (addr2, shutdown2, server2) = boot_server_durable(1, doc, 3, Some(data_dir.clone()));
    *addr_cell.lock().expect("addr cell") = addr2;

    let report =
        loadgen.join().expect("loadgen thread").expect("killed-and-restarted run completes");
    shutdown2.store(true, Ordering::Relaxed);
    server2.join().expect("second incarnation");

    assert!(report.converged, "clients never reconverged after the restart");
    assert_eq!(
        report.doc_digests, control_digests,
        "a recovered server must reproduce the control run's per-document digests"
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn a_scraped_durable_run_balances_its_ledger() {
    // The operational telemetry plane end to end: a durable server with
    // a status port, a converged loadgen run, the plain-text dump
    // answering without a Hello, and one `dce-top` scrape of the metrics
    // frame after the run.
    let doc = "watch me while I work";
    let stamp = std::process::id();
    let scratch = std::env::temp_dir().join(format!("dce-loadgen-scrape-{stamp}"));
    let data_dir = std::env::temp_dir().join(format!("dce-server-scrape-{stamp}"));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        users: 3,
        docs: 2,
        doc: doc.into(),
        rto_ms: 60,
        journal: 1 << 14,
        data_dir: Some(data_dir.clone()),
        status_addr: Some("127.0.0.1:0".into()),
    })
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound").to_string();
    let status = server.status_local_addr().expect("status bound").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(flag).expect("reactor runs"));

    let cfg = LoadgenConfig {
        addr,
        clients: 3,
        docs: 2,
        ops: 300,
        mix: Mix { ins: 50, del: 25, up: 15, admin: 10 },
        restrictive_pct: 25,
        think_ms: 1,
        seed: 77,
        doc: doc.into(),
        timeout_s: 60,
        results_dir: scratch.clone(),
        ..LoadgenConfig::default()
    };
    let report = run(&cfg).expect("durable run completes");
    assert!(report.converged, "replica digests disagreed at quiescence");
    let scraped = dce_top::scrape(&cfg.addr, std::time::Duration::from_secs(5))
        .expect("metrics frame answers after the run");

    // The status port answers any connection with an HTTP/1.0 JSON
    // dump (headers so curl accepts it, body for everyone else).
    let raw = {
        use std::io::Read;
        let mut s = std::net::TcpStream::connect(&status).expect("status connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("timeout");
        let mut body = String::new();
        s.read_to_string(&mut body).expect("status dump");
        body
    };
    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");

    assert!(raw.starts_with("HTTP/1.0 200 OK\r\n"), "status dump is HTTP: {raw:?}");
    let dump = raw.split_once("\r\n\r\n").expect("header/body split").1;
    assert!(dump.trim_start().starts_with('{'), "status dump body is JSON: {dump:?}");
    assert!(dump.contains("store.appended"), "status dump carries store counters");
    assert!(dump.contains("server.delivered"), "status dump carries server counters");

    // The scraped ledger balances: everything delivered was journaled
    // first.
    let counter = |name: &str| scraped.counters.get(name).copied().unwrap_or(0);
    let (appended, delivered) = (counter("store.appended"), counter("server.delivered"));
    assert!(delivered > 0, "the run's traffic shows up in the scrape");
    assert!(
        appended >= delivered,
        "a durable server journals everything it delivers ({appended} appended < {delivered} delivered)"
    );
    let fsyncs = scraped.histograms.get("store.fsync_ns").map_or(0, |h| h.count);
    assert!(fsyncs > 0, "fsync latency histogram is non-empty");
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&data_dir);
}
