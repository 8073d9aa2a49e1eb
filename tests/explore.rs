//! Tier-1 gate for the bounded model checker: every paper figure,
//! exhaustively explored at small bounds, must satisfy all four oracles
//! (convergence, security, legality, per-site determinism) at every
//! reachable quiescent state.
//!
//! Sizes are chosen so each exploration completes in well under a minute
//! in debug mode; the CI `explore` job runs the larger release-mode
//! sweeps.

use dce_check::{explore, explore_with, Config, Scenario, Verdict};

/// Explores `name` at `sites`/`ops` and asserts a clean, complete run.
fn assert_clean(name: &str, sites: usize, ops: usize, dups: u8) {
    let mut scenario = Scenario::by_name(name, sites, ops).expect("known scenario");
    scenario.max_dups = dups;
    match explore(&scenario) {
        Verdict::Ok(stats) => {
            assert!(stats.complete, "{name}: exploration should fit the default budget");
            assert!(stats.schedules > 0, "{name}: no schedules explored");
            assert!(stats.quiescent > 0, "{name}: no quiescent state reached");
        }
        Verdict::Violation(cx) => panic!(
            "{name}: {}\nschedule: {}\npin as:\n{}",
            cx.violation,
            cx.schedule,
            cx.schedule.to_rust_literal(),
        ),
    }
}

#[test]
fn fig1_pure_ot_convergence() {
    assert_clean("fig1", 3, 3, 0);
}

#[test]
fn fig2_revocation_race() {
    assert_clean("fig2", 3, 2, 0);
}

#[test]
fn fig3_admin_log_necessity() {
    assert_clean("fig3", 3, 2, 0);
}

#[test]
fn fig4_validation_protocol() {
    assert_clean("fig4", 3, 2, 0);
}

#[test]
fn fig5_illustrative_session() {
    assert_clean("fig5", 3, 2, 0);
}

#[test]
fn fig2_with_duplicate_deliveries() {
    assert_clean("fig2", 2, 2, 1);
}

/// Compaction racing the horizon: every destination `auto_compact`s after
/// every delivery while a heartbeat may overtake the concurrent edit it
/// announces. The state count is pinned: a change to it means the
/// scenario, the compactor or the reduction changed, and the new count
/// has to be looked at, not just accepted.
#[test]
fn gc_horizon_race() {
    let scenario = Scenario::by_name("gc", 3, 2).expect("known scenario");
    match explore(&scenario) {
        Verdict::Ok(stats) => {
            assert!(stats.complete, "gc: exploration should fit the default budget");
            assert!(stats.quiescent > 0, "gc: no quiescent state reached");
            assert_eq!(stats.states, 19_775, "gc: explored state count moved");
        }
        Verdict::Violation(cx) => panic!(
            "gc: {}\nschedule: {}\npin as:\n{}",
            cx.violation,
            cx.schedule,
            cx.schedule.to_rust_literal(),
        ),
    }
}

#[test]
fn budget_exhaustion_is_reported_not_fatal() {
    let scenario = Scenario::by_name("fig2", 3, 2).unwrap();
    let cfg = Config { max_states: 100, check_determinism: true };
    match explore_with(&scenario, cfg) {
        Verdict::Ok(stats) => {
            assert!(!stats.complete, "a 100-state budget cannot cover fig2");
            assert!(stats.states <= 100);
        }
        Verdict::Violation(cx) => panic!("unexpected violation: {}", cx.violation),
    }
}
