//! Command-line front end of the explorer.
//!
//! ```text
//! cargo run -p dce-check --release -- --scenario fig2 --sites 3 --ops 4
//! ```
//!
//! Exits 0 on `Verdict::Ok`, 1 with the shrunk counterexample (human
//! summary plus a `Schedule::new(vec![...])` Rust literal ready for
//! `crates/check/tests/regressions.rs`) on a violation, and 2 on usage
//! errors. On a violation the shrunk schedule is additionally replayed
//! with the flight recorder armed, leaving a replayable
//! `results/flight-<digest>.json` trace dump behind.

use dce_check::{explore_with, Config, Scenario, Verdict};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

const USAGE: &str = "usage: dce-check [options]
  --scenario <fig1|…|fig5|gc>            scenario (default fig2)
  --sites <n>                             sites incl. administrator (default 3)
  --ops <k>                               cooperative operations (default 4)
  --dups <d>                              duplicate deliveries per message (default 0)
  --budget <n>                            distinct-state budget (default 1000000)
  --no-determinism                        skip the replay-determinism oracle
  --flight-dir <dir>                      where violation trace dumps go (default results)";

struct Args {
    scenario: String,
    sites: usize,
    ops: usize,
    dups: u8,
    cfg: Config,
    flight_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        scenario: "fig2".to_owned(),
        sites: 3,
        ops: 4,
        dups: 0,
        cfg: Config::default(),
        flight_dir: "results".to_owned(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--scenario" => out.scenario = value("--scenario")?,
            "--sites" => out.sites = parse(&value("--sites")?)?,
            "--ops" => out.ops = parse(&value("--ops")?)?,
            "--dups" => out.dups = parse(&value("--dups")?)?,
            "--budget" => out.cfg.max_states = parse(&value("--budget")?)?,
            "--no-determinism" => out.cfg.check_determinism = false,
            "--flight-dir" => out.flight_dir = value("--flight-dir")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number: {s}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(mut scenario) = Scenario::by_name(&args.scenario, args.sites, args.ops) else {
        eprintln!("error: unknown scenario {:?} (or fewer than 2 sites)\n{USAGE}", args.scenario);
        std::process::exit(2);
    };
    scenario.max_dups = args.dups;

    println!(
        "exploring {} — {} sites, {} ops, {} dup(s)/msg",
        scenario.name,
        scenario.sites(),
        args.ops,
        args.dups,
    );
    let start = Instant::now();
    let verdict = explore_with(&scenario, args.cfg);
    let elapsed = start.elapsed();

    let stats = verdict.stats();
    println!(
        "states {} | transitions {} | schedules {} | quiescent {} | dedupe {} | sleep-skips {} | depth {} | {}",
        stats.states,
        stats.transitions,
        stats.schedules,
        stats.quiescent,
        stats.dedupe_hits,
        stats.sleep_skips,
        stats.max_depth,
        if stats.complete { "complete" } else { "budget exhausted" },
    );
    println!("elapsed {elapsed:.2?}");

    match verdict {
        Verdict::Ok(_) => println!("verdict: Ok — every oracle held at every quiescent state"),
        Verdict::Violation(cx) => {
            println!("verdict: VIOLATION ({})", cx.violation.kind());
            println!("  {}", cx.violation);
            println!(
                "  schedule ({} steps, shrunk from {}): {}",
                cx.schedule.len(),
                cx.original.len(),
                cx.schedule,
            );
            println!(
                "pin in crates/check/tests/regressions.rs:\n{}",
                cx.schedule.to_rust_literal()
            );
            // Replay the shrunk schedule with the flight recorder armed:
            // the dump carries the full per-site trace of the violation.
            let mut h = DefaultHasher::new();
            (scenario.name.as_str(), &cx.schedule.steps).hash(&mut h);
            let digest = h.finish();
            let obs = dce_obs::ObsHandle::recording(1 << 16);
            dce_trace::arm(&obs, digest, &args.flight_dir);
            if cx.schedule.record(&scenario, &obs).is_none() {
                eprintln!("note: shrunk schedule did not reproduce under recording");
            }
            std::process::exit(1);
        }
    }
}
