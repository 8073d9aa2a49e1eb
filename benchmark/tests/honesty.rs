//! Open-loop honesty: the properties that make the numbers mean what
//! the README says they mean.

use dce_benchmark::harness::RunOptions;
use dce_benchmark::run::run_workload;
use dce_benchmark::schedule::Schedule;
use dce_benchmark::stats::{percentile, TooFew};
use dce_benchmark::trace::{self_times, Name, Span, NONE};
use dce_benchmark::Workload;
use std::path::PathBuf;
use std::time::Duration;

fn typing(stall: Option<(Duration, Duration)>, tag: &str) -> RunOptions {
    RunOptions {
        workload: Workload::Typing,
        seed: 7,
        seconds: 3.0,
        traced: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
        segments: 1,
        stall,
    }
}

/// Latency is taken from the *intended* start: a generator held still
/// for 200 ms owes that wait to every op that fell due meanwhile, and
/// the harness must say how late it ran.
#[test]
fn a_stalled_generator_raises_the_tail_and_the_reported_lag() {
    let smooth = run_workload(&typing(None, "smooth")).expect("smooth run");
    let pause = (Duration::from_secs(1), Duration::from_millis(200));
    let stalled = run_workload(&typing(Some(pause), "stalled")).expect("stalled run");
    assert!(smooth.correct && stalled.correct);

    let of = |o: &dce_benchmark::run::Outcome, name: &str| o.get(name).expect(name);
    // ~80 of ~1200 ops fall due inside the pause: far more than 1 %.
    assert!(
        of(&stalled, "validate_p99_ms") > 100.0 && of(&smooth, "validate_p99_ms") < 50.0,
        "validate_p99_ms: smooth {} ms, stalled {} ms",
        of(&smooth, "validate_p99_ms"),
        of(&stalled, "validate_p99_ms")
    );
    assert!(
        of(&stalled, "bench.sched_lag_p99_us") > 100_000.0
            && of(&smooth, "bench.sched_lag_p99_us") < 50_000.0,
        "sched_lag_p99_us: smooth {} us, stalled {} us",
        of(&smooth, "bench.sched_lag_p99_us"),
        of(&stalled, "bench.sched_lag_p99_us")
    );
    // The same ops were offered either way.
    assert_eq!(smooth.attempted, stalled.attempted);
}

#[test]
fn a_seed_fixes_its_schedule() {
    let build = |w, seed| Schedule::build(w, seed, 0, 5_000_000_000);
    for w in Workload::ALL {
        assert_eq!(build(w, 1), build(w, 1));
        assert_eq!(build(w, 1).hash(), build(w, 1).hash());
        assert_ne!(build(w, 1).hash(), build(w, 2).hash(), "{} ignores its seed", w.name());
    }
    // Pinned: another build of this program must produce these bytes.
    assert_eq!(build(Workload::Typing, 1).hash(), 0x196c_9282_af4a_b838);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let v: Vec<f64> = (0..999).map(f64::from).collect();
    assert_eq!(percentile(&v, 99.0), Err(TooFew { have: 999, need: 1_000 }));
    assert!(percentile(&v, 90.0).is_ok());
    assert_eq!(percentile(&v[..99], 90.0), Err(TooFew { have: 99, need: 100 }));
    assert_eq!(percentile(&v[..19], 50.0), Err(TooFew { have: 19, need: 20 }));
    assert!(percentile(&v[..20], 50.0).is_ok());
}

#[test]
fn self_time_is_duration_minus_what_children_cover() {
    let span = |name, parent, start_ns, end_ns| Span { name, parent, start_ns, end_ns };
    let spans = [
        span(Name::Op, NONE, 0, 100),             // 0: root
        span(Name::CoreGenerate, 0, 10, 30),      // 1
        span(Name::ServerRtt, 0, 20, 70),         // 2: overlaps 1 on 20..30
        span(Name::WireRead, 2, 60, 65),          // 3: child of 2
        span(Name::FrameDecode, 2, 64, 80),       // 4: overlaps 3, overhangs 2
        span(Name::SettlePoll, 0, 90, 120),       // 5: overhangs the root
        span(Name::PolicyCheckLocal, NONE, 5, 9), // 6: no tree
    ];
    let own = self_times(&spans);
    // Root: children cover 10..70 and 90..100 → 100 − 70.
    assert_eq!(own[0], 30);
    assert_eq!(own[1], 20);
    // 2: children cover 60..70 once (60..65 ∪ 64..70).
    assert_eq!(own[2], 40);
    assert_eq!(own[3], 5);
    assert_eq!(own[4], 16);
    assert_eq!(own[5], 30);
    assert_eq!(own[6], 4);
}
