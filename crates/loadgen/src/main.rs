//! `dce-loadgen` — drive a running `dce-server` and check it converges.
//!
//! ```text
//! cargo run --release -p dce-loadgen -- --addr 127.0.0.1:7461 \
//!     --clients 4 --ops 1000 --mix 50:25:15:10 --think-ms 2
//! ```
//!
//! Prints one summary line and exits 0 when every replica digest agreed
//! at quiescence; exits 1 (leaving a flight dump in `results/`)
//! otherwise. Latency and throughput are measured by `benchmark/`.

use dce_loadgen::{run, LoadgenConfig, Mix};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: dce-loadgen [--addr HOST:PORT] [--session N] [--clients N] [--docs N] [--ops N]\n\
         \x20                  [--mix I:D:U:A] [--restrictive-pct N] [--think-ms MS]\n\
         \x20                  [--seed N] [--doc TEXT] [--timeout-s S]"
    );
    std::process::exit(2);
}

fn results_dir() -> PathBuf {
    // crates/loadgen → repository root → results/.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

fn main() {
    let mut cfg = LoadgenConfig { results_dir: results_dir(), ..LoadgenConfig::default() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => cfg.addr = val(),
            "--session" => cfg.session = val().parse().unwrap_or_else(|_| usage()),
            "--clients" => cfg.clients = val().parse().unwrap_or_else(|_| usage()),
            "--docs" => cfg.docs = val().parse().unwrap_or_else(|_| usage()),
            "--ops" => cfg.ops = val().parse().unwrap_or_else(|_| usage()),
            "--mix" => cfg.mix = Mix::parse(&val()).unwrap_or_else(|| usage()),
            "--restrictive-pct" => cfg.restrictive_pct = val().parse().unwrap_or_else(|_| usage()),
            "--think-ms" => cfg.think_ms = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val().parse().unwrap_or_else(|_| usage()),
            "--doc" => cfg.doc = val(),
            "--timeout-s" => cfg.timeout_s = val().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    match run(&cfg) {
        Ok(report) => {
            println!(
                "{} clients × {} docs, {} coop + {} proposals ({} denied locally): \
                 {} valid / {} invalid — converged: {}",
                report.clients,
                report.docs,
                report.coop_sent,
                report.proposals_sent,
                report.denied_local,
                report.resolved_valid,
                report.resolved_invalid,
                report.converged,
            );
            if !report.converged {
                eprintln!("dce-loadgen: DIVERGED — see results/flight-{}.json", cfg.seed);
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("dce-loadgen: {e}");
            std::process::exit(1);
        }
    }
}
