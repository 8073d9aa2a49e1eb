//! Greedy delta-debugging of counterexample schedules.
//!
//! Because replay is lenient and every replay ends with the canonical
//! drain plus a full oracle pass, *any* subsequence of a failing schedule
//! has a well-defined verdict. The shrinker exploits that: repeatedly try
//! dropping one step, keep the shorter schedule whenever it still fails
//! in the same [`Violation::kind`], and stop at a fixpoint (a 1-minimal
//! schedule: no single step can be removed).

use crate::oracle::Violation;
use crate::scenario::Scenario;
use crate::schedule::Schedule;

/// Shrinks `original` while preserving the violation class. Returns the
/// reduced schedule and the violation it reproduces. Falls back to the
/// input unchanged when the violation cannot be reproduced by replay —
/// notably [`Violation::Nondeterminism`], which by construction compares
/// a fork-explored state against its own replay and so has no
/// replay-only reproduction.
pub(crate) fn shrink(
    scenario: &Scenario,
    original: &Schedule,
    violation: &Violation,
) -> (Schedule, Violation) {
    if matches!(violation, Violation::Nondeterminism { .. }) {
        return (original.clone(), violation.clone());
    }
    let kind = violation.kind();
    let same_kind = |v: Option<Violation>| v.filter(|v| v.kind() == kind);

    // Re-establish the violation under plain replay (the explorer found it
    // mid-fork); adopt the steps that actually executed.
    let (v0, executed) = original.run(scenario);
    let Some(mut best) = same_kind(v0) else {
        return (original.clone(), violation.clone());
    };
    let mut steps = executed;

    loop {
        let mut improved = false;
        let mut i = 0;
        while i < steps.len() {
            let mut candidate = steps.clone();
            candidate.remove(i);
            let (v, executed) = Schedule::new(candidate).run(scenario);
            // The canonical drain appends the steps it ran, so a replay can
            // come back as long as the input: only a shorter one is progress.
            if let Some(v) = same_kind(v).filter(|_| executed.len() < steps.len()) {
                // Keep only the steps that executed: skipped steps can
                // never be load-bearing, so drop them in the same breath.
                steps = executed;
                best = v;
                improved = true;
                // `i` now addresses the next untried step — don't advance.
            } else {
                i += 1;
            }
        }
        if !improved {
            break;
        }
    }
    (Schedule::new(steps), best)
}
