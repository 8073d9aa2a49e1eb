//! Tier-1 acceptance tests for `dce-trace`: the figure replays merge
//! into cycle-free happens-before DAGs that agree with the lamport
//! stamps, a chaos session's journal correlates into spans end to end,
//! and an injected divergence leaves a replayable flight dump behind.

mod common;

use common::{grant, revoke, traced_group};
use dce::core::Message;
use dce::document::{Char, CharDocument, Op};
use dce::net::sim::{Latency, SimNet};
use dce::net::FaultPlan;
use dce::obs::{ObsHandle, ReqId};
use dce::policy::{Policy, Right};
use dce::trace::{build_spans, merge_events, publish, read_flight, EdgeKind, MergedTrace, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The acceptance bar shared by every figure replay: the merged trace
/// must be cycle-free, its topological order total over all events, and
/// every causal edge consistent with the lamport stamps — with no
/// degraded-mode warnings, since the journals are complete.
fn assert_causally_sound(trace: &MergedTrace, figure: &str) {
    assert!(
        trace.warnings.is_empty(),
        "{figure}: complete journal merged clean: {:?}",
        trace.warnings
    );
    let order = trace
        .topo_order()
        .unwrap_or_else(|stuck| panic!("{figure}: cycle through {} event(s)", stuck.len()));
    assert_eq!(order.len(), trace.events.len(), "{figure}: topological order covers every event");
    assert!(
        trace.lamport_inversions().is_empty(),
        "{figure}: every happens-before edge advances the lamport clock"
    );
    // The topological order itself must be realizable under the stamps:
    // walking it, no event may appear before a causal predecessor.
    let mut pos = vec![0usize; trace.events.len()];
    for (rank, &ev) in order.iter().enumerate() {
        pos[ev] = rank;
    }
    for e in &trace.edges {
        assert!(pos[e.from] < pos[e.to], "{figure}: edge {:?} out of order", e.kind);
    }
}

#[test]
fn fig2_replay_merges_into_a_sound_dag() {
    // Fig. 2's naive schedule: revocation concurrent with the insert.
    let (obs, mut adm, mut s1, mut s2) = traced_group("abc");
    let r = adm.admin_generate(revoke(Right::Insert, 1)).unwrap();
    let q = s1.generate(Op::ins(1, 'x')).unwrap();
    adm.receive(Message::Coop(q.clone())).unwrap();
    s2.receive(Message::Coop(q.clone())).unwrap();
    s2.receive(Message::Admin(r.clone())).unwrap();
    s1.receive(Message::Admin(r)).unwrap();

    let trace = merge_events(&obs.events());
    assert_causally_sound(&trace, "fig2");

    // The spans retell the figure: the insert executed tentatively at
    // s2, was denied at the admin, and was undone where it had run.
    let spans = build_spans(&trace);
    let span = spans.span(ReqId::new(q.ot.id.site, q.ot.id.seq)).expect("the insert has a span");
    assert_eq!(span.id.site, 1);
    let at_adm = span.remotes.iter().find(|r| r.site == 0).unwrap();
    assert_eq!(at_adm.outcome.as_ref().map(|o| o.0.label()), Some("denied"));
    let at_s2 = span.remotes.iter().find(|r| r.site == 2).unwrap();
    assert_eq!(at_s2.outcome.as_ref().map(|o| o.0.label()), Some("executed"));
    assert!(at_s2.undone.is_some(), "s2 retracted the insert");
    assert!(span.undone_at_origin.is_some(), "s1 retracted its own insert");
}

#[test]
fn fig3_replay_merges_into_a_sound_dag() {
    // Fig. 3: revoke, concurrent delete, regrant — the admin log keeps
    // the late deletion rejected everywhere.
    let (obs, mut adm, mut s1, mut s2) = traced_group("abc");
    let r1 = adm.admin_generate(revoke(Right::Delete, 2)).unwrap();
    let q = s2.generate(Op::del(1, 'a')).unwrap();
    let r2 = adm.admin_generate(grant(Right::Delete, 2)).unwrap();
    s1.receive(Message::Admin(r1.clone())).unwrap();
    s1.receive(Message::Admin(r2.clone())).unwrap();
    s1.receive(Message::Coop(q.clone())).unwrap();
    adm.receive(Message::Coop(q.clone())).unwrap();
    s2.receive(Message::Admin(r1)).unwrap();
    s2.receive(Message::Admin(r2)).unwrap();

    let trace = merge_events(&obs.events());
    assert_causally_sound(&trace, "fig3");

    // Admin edges exist: both administrative requests fan out from the
    // administrator to the two user sites.
    let admin_edges = trace.edges.iter().filter(|e| e.kind == EdgeKind::Admin).count();
    assert!(admin_edges >= 4, "two admin requests × two receivers, got {admin_edges}");

    let spans = build_spans(&trace);
    let span = spans.span(ReqId::new(q.ot.id.site, q.ot.id.seq)).expect("the deletion has a span");
    for denied_at in [0u32, 1] {
        let rs = span.remotes.iter().find(|r| r.site == denied_at).unwrap();
        assert_eq!(rs.outcome.as_ref().map(|o| o.0.label()), Some("denied"), "site {denied_at}");
    }
    assert!(span.undone_at_origin.is_some(), "s2 retracts its own deletion");
}

#[test]
fn fig4_replay_merges_into_a_sound_dag() {
    // Fig. 4: a validated insert delayed behind the later revocation.
    let (obs, mut adm, mut s1, mut s2) = traced_group("abc");
    let q = s1.generate(Op::ins(1, 'x')).unwrap();
    adm.receive(Message::Coop(q.clone())).unwrap();
    let validation = adm.drain_outbox();
    let r = adm.admin_generate(revoke(Right::Insert, 1)).unwrap();

    // Adversarial order at s2: revocation, validation, insert.
    s2.receive(Message::Admin(r.clone())).unwrap();
    for m in validation.clone() {
        s2.receive(m).unwrap();
    }
    s2.receive(Message::Coop(q.clone())).unwrap();
    for m in validation {
        s1.receive(m).unwrap();
    }
    s1.receive(Message::Admin(r)).unwrap();

    let trace = merge_events(&obs.events());
    assert_causally_sound(&trace, "fig4");

    // The validation protocol shows up as Validation edges from the
    // admin's issue to each site's consumption.
    let validation_edges = trace.edges.iter().filter(|e| e.kind == EdgeKind::Validation).count();
    assert!(validation_edges >= 2, "issue → consume at the user sites, got {validation_edges}");

    let spans = build_spans(&trace);
    let span = spans.span(ReqId::new(q.ot.id.site, q.ot.id.seq)).expect("the insert has a span");
    assert!(span.validation.is_some(), "the admin issued a validation");
    assert!(span.validated_at_origin.is_some(), "s1 consumed it");
    let at_s2 = span.remotes.iter().find(|r| r.site == 2).unwrap();
    assert_eq!(at_s2.outcome.as_ref().map(|o| o.0.label()), Some("executed"));
    assert!(at_s2.undone.is_none(), "the validated insert survives the revocation");
    assert!(span.undone_at_origin.is_none());
}

/// One seeded chaos session with a recording handle attached; returns
/// the journal (complete — the ring is sized for the whole run).
fn chaos_journal(seed: u64, obs: &ObsHandle) -> SimNet<Char> {
    let users: Vec<u32> = (0..4).collect();
    let mut sim: SimNet<Char> = SimNet::group(
        4,
        CharDocument::from_str("correlate"),
        Policy::permissive(users),
        seed,
        Latency::Uniform(1, 80),
    );
    sim.enable_observability(obs.clone());
    sim.set_fault_plan(
        FaultPlan::none().with_drops(0.25).with_duplicates(0.05).with_reordering(0.05, 200),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..10u32 {
        for site in 0..4usize {
            for _ in 0..2 {
                let len = sim.site(site).document().len();
                let op = if len == 0 || rng.gen_bool(0.5) {
                    Op::ins(rng.gen_range(1..=len + 1), (b'a' + (round % 26) as u8) as char)
                } else {
                    let p = rng.gen_range(1..=len);
                    Op::Del { pos: p, elem: *sim.site(site).document().get(p).unwrap() }
                };
                let _ = sim.submit_coop(site, op);
            }
        }
        if round % 3 == 1 {
            let _ = sim.submit_admin(0, revoke(Right::Update, 1 + round % 3));
        }
        if round % 4 == 3 {
            sim.gossip_heartbeats();
        }
        for _ in 0..30 {
            sim.step();
        }
    }
    sim.run_to_quiescence();
    sim
}

#[test]
fn chaos_session_journal_correlates_into_spans() {
    const SEED: u64 = 0xC0_44E1A7E;
    let obs = ObsHandle::recording(1 << 16);
    let sim = chaos_journal(SEED, &obs);
    sim.assert_converged(SEED);
    let events = obs.events();
    assert_eq!(obs.overflowed(), 0, "ring sized for the whole session");

    // A lossy-but-repaired session still merges clean: the journal is
    // complete, so no degraded-mode warnings, and the DAG is acyclic.
    let trace = merge_events(&events);
    assert_causally_sound(&trace, "chaos");

    // Rolling the trace up into spans populates the derived convergence
    // metrics in a dce-obs registry.
    let spans = build_spans(&trace);
    assert!(!spans.spans.is_empty(), "the session generated requests");
    let metrics = ObsHandle::metrics_only();
    publish(&spans, &metrics);
    let report = metrics.snapshot();
    assert!(report.gauges["trace.requests"] > 0);
    let lag = &report.histograms["trace.convergence_lag"];
    assert!(lag.count > 0, "settled requests contribute convergence lag");
    assert!(lag.max >= lag.p50);
    // Retransmissions happened (drops + reliability) and were attributed.
    assert!(report.histograms.contains_key("trace.retransmit_amplification"));

    // At least one span settled at every remote with a known outcome.
    let settled = spans.spans.iter().filter(|s| s.settled_everywhere()).count();
    assert!(settled > 0, "some requests settled everywhere");
    for span in spans.spans.iter() {
        for r in &span.remotes {
            if let Some((outcome, _)) = &r.outcome {
                assert!(matches!(outcome, Outcome::Executed | Outcome::Inert | Outcome::Denied));
            }
        }
    }
}

#[test]
fn injected_divergence_leaves_a_replayable_flight_dump() {
    // Same chaos workload, then one edit made at site 1 and never
    // broadcast: the sites diverge. The armed flight recorder must
    // capture the evidence before the panic.
    const SEED: u64 = 0xF11_6447;
    let dir = std::path::Path::new("results");
    let path = dce::trace::flight_path(dir, SEED);
    let _ = std::fs::remove_file(&path);

    let obs = ObsHandle::recording(1 << 16);
    dce::trace::arm(&obs, SEED, dir);
    let mut sim = chaos_journal(SEED, &obs);
    sim.site_mut(1).generate(Op::ins(1, 'z')).unwrap();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.assert_converged(SEED);
    }));
    assert!(outcome.is_err(), "an edit that never left its site diverges");

    // The dump exists, names the seed that replays it, and its journal
    // round-trips into the same (still sound) trace.
    let dump = read_flight(&path).unwrap_or_else(|e| panic!("flight dump unreadable: {e}"));
    assert_eq!(dump.seed, SEED);
    assert!(dump.reason.contains("diverged"), "reason: {}", dump.reason);
    assert!(dump.reason.contains(&format!("seed {SEED}")), "reason names the seed");
    assert_eq!(dump.events, obs.events(), "the dump carries the full journal");
    let trace = merge_events(&dump.events);
    assert!(trace.is_acyclic(), "even a diverged run's journal merges acyclically");
    assert!(!trace.events.is_empty());
    let _ = std::fs::remove_file(&path);
}

/// The `dce-trace` bin's one journal format round-trips through its own
/// flags: the Fig. 2 replay written with `--save` and read back with
/// `--events` — whole, or split into one file per site — prints the same
/// summary line and span tree as the plain replay.
#[test]
fn dce_trace_save_then_events_reproduces_the_replay() {
    let dir = std::env::temp_dir().join(format!("dce-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[String]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dce-trace"))
            .args(args)
            .output()
            .expect("dce-trace runs");
        assert!(
            out.status.success(),
            "dce-trace {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let plain = run(&[]);
    assert!(plain.contains("1#1 · origin site 1"), "{plain}");

    let saved = dir.join("fig2.json").display().to_string();
    assert!(run(&["--save".into(), saved.clone()]).ends_with(&plain));
    assert_eq!(run(&["--events".into(), saved.clone()]), plain);

    let events = dce::trace::json::events_from_json(&std::fs::read_to_string(&saved).unwrap())
        .expect("the saved journal parses");
    let mut per_site = Vec::new();
    for site in merge_events(&events).sites() {
        let path = dir.join(format!("site-{site}.json")).display().to_string();
        let mine: Vec<_> = events.iter().filter(|ev| ev.site == site).copied().collect();
        std::fs::write(&path, dce::trace::json::events_to_json(&mine)).unwrap();
        per_site.extend(["--events".to_string(), path]);
    }
    assert!(per_site.len() >= 6, "Fig. 2 involves three sites");
    assert_eq!(run(&per_site), plain);
    let _ = std::fs::remove_dir_all(&dir);
}
