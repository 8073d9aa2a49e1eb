//! Command line of the benchmark.
//!
//! ```text
//! dce-benchmark [run] [--workload NAME] [--seed N] [--repeat K]
//!               [--seconds S] [--trace 0|1 | --traced] [--out FILE]
//! dce-benchmark compare A.json B.json
//! ```
//!
//! With no `--workload`, every workload runs. `--trace 1` runs traced
//! only; `--traced` runs each workload untraced, then traced. Every run
//! ends with the one-line JSON object of the contract in
//! `/BENCHMARK.json`, so the last line of standard output is always the
//! last run's.

use dce_benchmark::harness::RunOptions;
use dce_benchmark::run::{run_workload, Outcome};
use dce_benchmark::spec::Contract;
use dce_benchmark::{compare, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Independent sessions a run of `seconds` is cut into: five (odd, so
/// the median is a measured value; five tolerate two disturbed
/// segments), fewer when a segment would be too short to hold the 1 000
/// samples a `p99` needs on the slowest open-loop workload.
fn segments(seconds: f64) -> usize {
    match seconds {
        s if s >= 25.0 => 5,
        s if s >= 15.0 => 3,
        _ => 1,
    }
}

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 20_090_824;

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    repeat: u64,
    seconds: Option<f64>,
    /// Run untraced / traced.
    modes: Vec<bool>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        repeat: 1,
        seconds: None,
        modes: vec![false],
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workloads
                    .push(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--repeat" => cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=120.0).contains(&s) {
                    return Err("--seconds must be between 1 and 120".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.modes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => cli.modes = vec![false, true],
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = Workload::ALL.to_vec();
    }
    Ok(cli)
}

fn run(args: &[String]) -> Result<bool, String> {
    let cli = parse(args)?;
    let seconds = match cli.seconds {
        Some(s) => s,
        None => Contract::load()?.run_seconds as f64,
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut ok = true;
    for i in 0..cli.repeat {
        for &workload in &cli.workloads {
            let mut untraced: Option<Outcome> = None;
            for &traced in &cli.modes {
                let opts = RunOptions {
                    workload,
                    seed: cli.seed + i,
                    seconds,
                    traced,
                    out_dir: out_dir.clone(),
                    segments: segments(seconds),
                    stall: None,
                };
                let outcome = run_workload(&opts)?;
                outcome.print();
                if let (true, Some(plain)) = (traced, &untraced) {
                    reconcile(plain, &outcome);
                }
                if outcome.threads.is_some_and(|n| n != 2) {
                    eprintln!("benchmark: {}: not two threads while measuring", workload.name());
                    ok = false;
                }
                ok &= outcome.correct;
                println!("{}", outcome.contract_line());
                if !traced {
                    untraced = Some(outcome.clone());
                }
                outcomes.push(outcome);
            }
        }
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, compare::to_json(&outcomes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// The reconciliation report: do the spans add up to the end-to-end
/// number, and does the microbenchmark agree with the in-run timing?
/// Per ROADMAP, where they disagree the disagreement is the work item.
fn reconcile(untraced: &Outcome, traced: &Outcome) {
    let say = |what: &str, part: f64, whole: f64| {
        let ratio = part / whole;
        let flag = if (ratio - 1.0).abs() > 0.10 { "  <-- disagree by more than 10 %" } else { "" };
        println!("  reconcile: {what}: {part:.4} / {whole:.4} = {ratio:.3}{flag}");
    };
    if let (Some(path), Some(e2e)) =
        (traced.get("bench.path_self_p50_ms"), untraced.get("validate_p50_ms"))
    {
        say("p50 of summed span self-times vs untraced validate_p50_ms", path, e2e);
    }
    if let (Some(t2), Some(in_run)) =
        (traced.get("ot.t2_at_final_h_us"), traced.get("core.receive_coop_ns_p50"))
    {
        say("ot.t2_at_final_h_us vs in-run core.receive_coop_ns_p50 (us)", t2, in_run / 1e3);
    }
    if let (Some(t1), Some(in_run)) =
        (traced.get("ot.t1_at_final_h_us"), traced.get("core.generate_ns_p50"))
    {
        say("ot.t1_at_final_h_us vs in-run core.generate_ns_p50 (us)", t1, in_run / 1e3);
    }
    if let Some(pct) = traced.get("bench.trace_overhead_pct") {
        println!("  reconcile: tracing cost {pct:.2} % against the untraced run just above");
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("compare takes two result files".into()) };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let rows = compare::compare(&Contract::load()?, &read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(compare::print(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
