//! One run of one workload, from set-up to a checked [`Outcome`].

use crate::harness::{Counts, Member, RunOptions, Session, DOC};
use crate::schedule::{EditKind, Schedule};
use crate::spec;
use crate::stats::{self, percentile};
use crate::trace::{self, Name, Tracer, NONE};
use crate::Workload;
use dce_core::{Flag, Message, Site};
use dce_document::{Char, CharDocument, Op};
use dce_obs::{MetricsReport, ObsHandle};
use dce_server::initial_policy;
use dce_store::{EngineStore, FsyncPolicy, StoreConfig};
use dce_trace::json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples a percentile was taken over.
    pub samples: Option<usize>,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether spans were on.
    pub traced: bool,
    /// Threads of the process as the measured window opened (2, or the
    /// run does not count; `None` off Linux).
    pub threads: Option<usize>,
    /// Digests agreed and no operation failed.
    pub correct: bool,
    /// Operations the schedule asked for inside the measured window.
    pub attempted: u64,
    /// How many of them failed (all of them when digests disagree).
    pub failed: u64,
    /// End-to-end metrics (also taken in traced runs, to price tracing).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The per-segment values behind each end-to-end metric, in segment
    /// order.
    pub segments: Vec<(String, Vec<f64>)>,
    /// What a reader should know about this run.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Looks a metric up by name in either table.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics the contract wants from this kind of run.
    pub fn contract_metrics(&self) -> &[Metric] {
        match self.traced {
            true => &self.per_layer,
            false => &self.end_to_end,
        }
    }

    /// The one-line JSON object the driver reads.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .contract_metrics()
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::quote(&m.name),
                    m.value,
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints every metric by name, with unit and sample count.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {}) — loopback TCP, not a link; 2 threads, 2 member connections",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            match m.samples {
                Some(n) => println!("  {:<36} {:>16.6} {:<6} (n = {n})", m.name, m.value, m.unit),
                None => println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit),
            }
        }
        println!(
            "  attempted {}  failed {}  correct {}",
            self.attempted, self.failed, self.correct
        );
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

fn data_dir(opts: &RunOptions, segment: usize) -> Option<PathBuf> {
    (opts.workload == Workload::Durable)
        .then(|| opts.out_dir.join(format!("wal-{}-{}-{segment}", opts.seed, std::process::id())))
}

fn remove(dir: Option<&Path>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(dir.with_extension("copy"));
    }
}

/// What one segment — one fresh session, set up, loaded for its share of
/// `--seconds`, drained, checked and torn down — measured.
struct Segment {
    /// Every metric of the segment but `setup_s`, by name.
    values: Vec<(String, f64)>,
    setup_s: f64,
    samples: usize,
    attempted: u64,
    failed: u64,
    digests_agree: bool,
    lag_p99_us: f64,
    threads: Option<usize>,
    enforce_ms: Vec<f64>,
    notes: Vec<String>,
}

/// Runs `opts.workload` once: `opts.segments` independent sessions, each
/// reported number the median over the segments of the per-segment value
/// — for a `p99`, the second-best segment's — so that disturbed segments
/// cannot move it, then the gate.
pub fn run_workload(opts: &RunOptions) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let workload = opts.workload;
    let n = opts.segments.max(1);
    let segments: Vec<Segment> =
        (0..n).map(|i| run_segment(opts, i, i + 1 == n)).collect::<Result<_, _>>()?;

    let each = |name: &str| -> Vec<f64> {
        if name == "setup_s" {
            return segments.iter().map(|s| s.setup_s).collect();
        }
        let values: Vec<f64> = segments
            .iter()
            .filter_map(|s| s.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
            .collect();
        assert_eq!(values.len(), segments.len(), "{name} is missing from a segment");
        values
    };
    // A disturbance on a shared box only ever lengthens a tail, so a tail
    // takes the second-best segment; everything else takes the median.
    let across = |name: &str| {
        let mut values = each(name);
        if name.contains("_p99") {
            stats::sort(&mut values);
            values[1.min(values.len() - 1)]
        } else {
            stats::median(&values)
        }
    };
    let samples: usize = segments.iter().map(|s| s.samples).sum();
    let end_to_end: Vec<Metric> = spec::END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: across(name),
            unit,
            samples: match name {
                "setup_s" => Some(n),
                "goodput_ops_s" => None,
                _ => Some(samples),
            },
        })
        .collect();

    let attempted: u64 = segments.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = segments.iter().map(|s| s.failed).sum();
    let agree = segments.iter().all(|s| s.digests_agree);
    if !agree {
        failed = attempted;
    }
    let lag_p99_us = segments.iter().map(|s| s.lag_p99_us).fold(0.0, f64::max);
    let mut notes: Vec<String> = segments.iter().flat_map(|s| s.notes.iter().cloned()).collect();
    notes.push(format!(
        "{n} segments of {:.1} s, each a fresh session; every number is the median of the \
         per-segment values (a p99: the second-best segment's)",
        opts.seconds / n as f64
    ));
    // An open-loop generator that ran late disturbed its segment; the
    // medians shrug off a minority of those, not a majority.
    let late = segments.iter().filter(|s| s.lag_p99_us > 1_000.0).count();
    if workload.coop_gap_ns().is_some() && late > 0 {
        notes.push(format!(
            "{}the generator ran late (sched_lag_p99 > 1000 us) in {late} of {n} segments, worst \
             {lag_p99_us:.0} us",
            if 2 * late > n { "INVALID RUN: " } else { "" }
        ));
    }
    if workload == Workload::Durable {
        notes.push(
            "each server was dropped without shutdown: process-kill durability (what the OS held \
             survives), not power loss"
                .into(),
        );
    }
    let mut outcome = Outcome {
        workload,
        seed: opts.seed,
        traced: opts.traced,
        threads: segments.iter().filter_map(|s| s.threads).max(),
        correct: failed == 0 && agree,
        attempted,
        failed,
        end_to_end,
        per_layer: Vec::new(),
        segments: spec::END_TO_END.iter().map(|&(n, _)| (n.to_string(), each(n))).collect(),
        notes,
    };

    let reference = opts.out_dir.join(format!("untraced-{}.json", workload.name()));
    if !opts.traced {
        // What the next traced run of this workload prices itself against.
        let body = format!(
            "{{\"validate_p50_ms\": {}, \"goodput_ops_s\": {}}}\n",
            outcome.get("validate_p50_ms").expect("just computed"),
            outcome.get("goodput_ops_s").expect("just computed")
        );
        std::fs::write(&reference, body).map_err(|e| format!("{}: {e}", reference.display()))?;
        return Ok(outcome);
    }

    // A few per-layer figures are not medians of segment values.
    let mut enforce: Vec<f64> =
        segments.iter().flat_map(|s| s.enforce_ms.iter().copied()).collect();
    stats::sort(&mut enforce);
    let special = |name: &str| -> Option<f64> {
        Some(match name {
            "failed_share" => failed as f64 / attempted.max(1) as f64,
            // Pooled: one segment holds too few restrictions for a p90.
            "enforce_p50_ms" => percentile(&enforce, 50.0).unwrap_or(0.0),
            "enforce_p90_ms" => percentile(&enforce, 90.0).unwrap_or(0.0),
            "bench.sched_lag_p99_us" => lag_p99_us,
            "bench.samples" => samples as f64,
            "bench.threads" => outcome.threads.unwrap_or(0) as f64,
            "bench.trace_overhead_pct" => trace_overhead_pct(&reference, &outcome),
            "bench.traced_validate_p50_ms" => outcome.get("validate_p50_ms").expect("computed"),
            _ => return None,
        })
    };
    outcome.per_layer = spec::per_layer()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: special(&name).unwrap_or_else(|| across(&name)),
            name,
            unit,
            samples: None,
        })
        .collect();
    Ok(outcome)
}

fn run_segment(opts: &RunOptions, index: usize, last: bool) -> Result<Segment, String> {
    let window_ns = (opts.seconds * 1e9) as u64 / opts.segments.max(1) as u64;
    let schedule = Schedule::build(opts.workload, opts.seed, index as u64, window_ns);
    let dir = data_dir(opts, index);
    let t = Instant::now();
    let mut session = Session::set_up(opts.workload, &schedule, dir.clone())?;
    let setup_s = t.elapsed().as_secs_f64();
    let result = measure_segment(opts, &schedule, &mut session, dir.as_deref(), window_ns, last);
    let torn = session.tear_down();
    remove(dir.as_deref());
    let mut segment = result?;
    torn?;
    segment.setup_s = setup_s;
    Ok(segment)
}

fn measure_segment(
    opts: &RunOptions,
    schedule: &Schedule,
    session: &mut Session,
    dir: Option<&Path>,
    window_ns: u64,
    last: bool,
) -> Result<Segment, String> {
    let workload = opts.workload;
    let measured = session.measure(opts, schedule, dir, window_ns)?;
    let digests = session.check_digests();
    let mut notes = Vec::new();
    if last {
        notes.push(format!("schedule hash of the last segment {:#018x}", schedule.hash()));
    }

    // ---- samples ---------------------------------------------------
    let (w0, w1) = measured.window;
    let window_s = (w1 - w0) as f64 / 1e9;
    // `durable`: ops in flight when the server is dropped complete only
    // after recovery — that is `recover_s`, not latency under load — so
    // latency is sampled over ops due in the first 90 % of the window.
    let sampled_until = match measured.dropped_at {
        Some(_) => w1 - (w1 - w0) / 10,
        None => w1,
    };
    let mut validate = Vec::new();
    let mut visible = Vec::new();
    let mut keystroke = Vec::new();
    let mut lag = Vec::new();
    let (mut settled_in_window, mut invalid, mut unseen) = (0u64, 0u64, 0u64);
    for m in &session.members {
        for op in &m.ops {
            if (w0..w1).contains(&op.settled) {
                settled_in_window += 1;
            }
            if !op.measured || op.intended >= sampled_until {
                continue;
            }
            keystroke.push((op.gen_end - op.gen_start) as f64 / 1e3);
            lag.push(op.gen_start.saturating_sub(op.intended) as f64 / 1e3);
            if op.settled != 0 {
                validate.push((op.settled - op.intended) as f64 / 1e6);
                invalid += u64::from(op.flag == Flag::Invalid);
            }
            match op.visible {
                0 => unseen += 1,
                t => visible.push(t.saturating_sub(op.intended) as f64 / 1e6),
            }
        }
    }
    for v in [&mut validate, &mut visible, &mut keystroke, &mut lag] {
        stats::sort(v);
    }
    let counts = sum_counts(&session.members);

    // ---- failures --------------------------------------------------
    let attempted = counts.attempted + counts.proposals;
    let mut failed = counts.errored + measured.unsettled + measured.enforce_pending as u64;
    if !workload.restricts() {
        // "No legal operation is rejected": with no restrictive request
        // in the workload, a refusal of either kind is a failure.
        failed += invalid + counts.denied_local;
    }
    // An op the other member never integrated is lost, whatever its flag.
    failed += unseen.saturating_sub(measured.unsettled);
    match &digests {
        Ok(d) if last => notes.push(format!("final digests agree on two polls: {d:#018x}")),
        Ok(_) => {}
        Err(e) => notes.push(e.clone()),
    }

    // ---- end-to-end ------------------------------------------------
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    let pct = |name: &str, v: &[f64], p: f64| {
        percentile(v, p).map_err(|e| format!("{name}: {e} in one segment"))
    };
    put("validate_p50_ms", pct("validate_p50_ms", &validate, 50.0)?);
    put("validate_p99_ms", pct("validate_p99_ms", &validate, 99.0)?);
    put("visible_p50_ms", pct("visible_p50_ms", &visible, 50.0)?);
    put("visible_p99_ms", pct("visible_p99_ms", &visible, 99.0)?);
    put("keystroke_p99_us", pct("keystroke_p99_us", &keystroke, 99.0)?);
    put("goodput_ops_s", settled_in_window as f64 / window_s);
    let lag_p99_us = pct("sched_lag", &lag, 99.0)?;

    let mut segment = Segment {
        values: Vec::new(),
        setup_s: 0.0,
        samples: validate.len(),
        attempted,
        failed,
        digests_agree: digests.is_ok(),
        lag_p99_us,
        threads: measured.threads,
        enforce_ms: measured.enforce_ms.clone(),
        notes,
    };
    if !opts.traced {
        segment.values = values;
        return Ok(segment);
    }

    // ---- per layer (traced) ----------------------------------------
    let wall_ns = (measured.span.1 - measured.span.0) as f64;
    let ops = (counts.attempted - counts.denied_local - counts.errored).max(1) as f64;
    let recover_s = match (measured.dropped_at, measured.recovered_at) {
        (Some(d), Some(r)) => (r - d) as f64 / 1e9,
        _ => 0.0,
    };
    put("recover_s", recover_s);
    put("bench.client_busy_share", measured.client_busy_ns as f64 / wall_ns);
    let after = session.registry()?;
    let tracer = session.tracer();
    put("bench.path_self_p50_ms", path_self_p50_ms(tracer));

    put("core.log_len_max", measured.log_len_max as f64);
    put("core.admin_log_len_max", measured.admin_log_len_max as f64);
    put("core.queued_max", measured.queued_max as f64);
    let at_members = |f: fn(&Site<Char>) -> usize| -> f64 {
        let each = session.members.iter().map(|m| m.engine.with(DOC, |s| f(s)));
        each.map(|n| n.expect("the document is hosted")).sum::<usize>() as f64
    };
    put("core.undone", at_members(|s| s.undone().len()));
    put("core.denials", at_members(|s| s.denials().len()));

    let member1: Site<Char> =
        session.members[0].engine.with(DOC, |s| s.clone()).expect("the document is hosted");
    let (final_h, t1_us, t2_us) = ot_probe(&member1, schedule);
    put("ot.final_h", final_h as f64);
    put("ot.t1_at_final_h_us", t1_us);
    put("ot.t2_at_final_h_us", t2_us);

    put("policy.auths_final", member1.policy().authorizations().len() as f64);
    put("policy.version_final", member1.version() as f64);
    put("policy.denied_local", counts.denied_local as f64);

    put("net.reliable.client_retransmits", counts.retransmits as f64);
    put("net.reliable.dup_received", counts.dup_in as f64);
    put(
        "net.reliable.useful_share",
        (counts.data_in - counts.dup_in) as f64 / counts.data_in.max(1) as f64,
    );
    put("net.reliable.unacked_depth_max", counts.unacked_max as f64);
    put("net.frame.bytes_out_per_op", counts.bytes_out as f64 / ops);
    put("net.frame.bytes_in_per_op", counts.bytes_in as f64 / ops);
    put("net.frame.frames_in_per_op", counts.frames_in as f64 / ops);
    put("wire.writes_per_op", counts.writes as f64 / ops);

    // The server's own registry, over the measured window.
    let reg = &measured.registry;
    let counter = |r: &MetricsReport, n: &str| r.counters.get(n).copied().unwrap_or(0) as f64;
    let gauge = |r: &MetricsReport, n: &str| r.gauges.get(n).copied().unwrap_or(0) as f64;
    let hist = |r: &MetricsReport, n: &str| r.histograms.get(n).cloned().unwrap_or_default();
    let delivered = counter(reg, "server.delivered");
    put("server.cpu_share", measured.server_cpu_s / window_s);
    put("server.cpu_us_per_op", measured.server_cpu_s * 1e6 / delivered.max(1.0));
    put("server.bind_s", measured.bind_s);
    put("server.delivered", delivered);
    put("server.retransmits", counter(reg, "server.retransmits"));
    put("server.compactions", counter(reg, "server.compactions"));
    put("server.log_len", gauge(reg, "server.log_len"));
    put("server.unacked_depth", gauge(reg, "server.unacked_depth"));
    put("site.drain_ns_mean", hist(reg, "site.drain_ns").mean());
    put("site.drain_ns_p99", hist(reg, "site.drain_ns").p99 as f64);
    put("server.read_ns_total", hist(reg, "server.read_ns").sum as f64);
    put("server.write_ns_total", hist(reg, "server.write_ns").sum as f64);
    put("server.timer_ns_total", hist(reg, "server.timer_ns").sum as f64);

    // `store.*`: appends from the dropped incarnation's registry, replay
    // from the recovering one's. All zero without a data directory.
    put("store.recover_doc_s", measured.wal_copy.as_deref().map_or(Ok(0.0), recover_doc_s)?);
    put("store.wal_bytes_per_op", measured.wal_bytes as f64 / delivered.max(1.0));
    put("store.appended", counter(reg, "store.appended"));
    put("store.append_ns_mean", hist(reg, "store.append_ns").mean());
    put("store.fsync_ns_p99", hist(reg, "store.fsync_ns").p99 as f64);
    put("store.fsync_batch_mean", hist(reg, "store.fsync_batch").mean());
    let recovering = if measured.dropped_at.is_some() { &after } else { reg };
    put("store.replayed", counter(recovering, "store.replayed"));
    put("store.recover_replay_ns", hist(recovering, "store.recover_replay_ns").sum as f64);
    put("store.recover_snapshot_ns", hist(recovering, "store.recover_snapshot_ns").sum as f64);
    put("store.snapshot_written", counter(reg, "store.snapshot_written"));

    for (name, at) in spec::TIMED {
        let mut d: Vec<f64> = match at {
            // The one timed layer that exists only inside op trees.
            Name::ServerRtt => tracer
                .spans()
                .iter()
                .filter(|s| s.name == Name::ServerRtt)
                .map(|s| s.duration() as f64)
                .collect(),
            _ => tracer.durations(at).iter().map(|&d| f64::from(d)).collect(),
        };
        stats::sort(&mut d);
        put(&format!("{name}_p50"), percentile(&d, 50.0).unwrap_or(0.0));
        put(&format!("{name}_p99"), percentile(&d, 99.0).unwrap_or(0.0));
        put(&format!("{name}_busy_share"), d.iter().sum::<f64>() / wall_ns);
    }

    if last {
        let trace_file = opts.out_dir.join(format!("trace-{}.json", workload.name()));
        tracer.write_json(&trace_file).map_err(|e| format!("{}: {e}", trace_file.display()))?;
        segment.notes.push(format!(
            "{} spans of the last segment in {}",
            tracer.spans().len(),
            trace_file.display()
        ));
    }
    segment.values = values;
    Ok(segment)
}

fn sum_counts(members: &[Member]) -> Counts {
    let mut t = Counts::default();
    for c in members.iter().map(|m| &m.counts) {
        t.attempted += c.attempted;
        t.errored += c.errored;
        t.denied_local += c.denied_local;
        t.proposals += c.proposals;
        t.bytes_out += c.bytes_out;
        t.bytes_in += c.bytes_in;
        t.frames_in += c.frames_in;
        t.writes += c.writes;
        t.data_in += c.data_in;
        t.dup_in += c.dup_in;
        t.retransmits += c.retransmits;
        t.unacked_max = t.unacked_max.max(c.unacked_max);
    }
    t
}

/// What tracing cost, against the last untraced run of this workload in
/// this checkout: the rise of `validate_p50_ms` on an open-loop
/// workload, the fall of `goodput_ops_s` on a closed-loop one, percent.
/// 0 when there is no untraced run to compare with.
fn trace_overhead_pct(reference: &Path, traced: &Outcome) -> f64 {
    let Some(untraced) = std::fs::read_to_string(reference).ok().and_then(|t| json::parse(&t).ok())
    else {
        return 0.0;
    };
    let of = |name: &str| untraced.get(name).and_then(spec::number);
    let pair = match traced.workload.coop_gap_ns() {
        Some(_) => {
            of("validate_p50_ms").zip(traced.get("validate_p50_ms")).map(|(u, t)| (t - u) / u)
        }
        None => of("goodput_ops_s").zip(traced.get("goodput_ops_s")).map(|(u, t)| (u - t) / u),
    };
    pair.map_or(0.0, |share| share * 100.0)
}

/// Median, over measured ops, of the self-times summed along the op's
/// tree (everything under the root): what the spans account for of
/// `validate`. The root's own self time is the unattributed rest.
fn path_self_p50_ms(tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    let own = trace::self_times(spans);
    let mut sums: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == Name::Op && s.parent == NONE && s.end_ns != 0)
        .map(|(s, &own)| (s.duration() - own) as f64 / 1e6)
        .collect();
    stats::sort(&mut sums);
    percentile(&sums, 50.0).unwrap_or(0.0)
}

const PROBE_REPS: usize = 5;

fn median_us(mut run: impl FnMut() -> u128) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS).map(|_| run() as f64 / 1e3).collect();
    stats::median(&samples)
}

/// The microbenchmark at the log length the run ended with, as `fig7`
/// takes it: `t1` is one local insertion in the middle of a clone of the
/// member's own replica; `t2` is the reception, by a replica whose log
/// holds `final_h` of this run's edits, of a request concurrent to all
/// of them (the paper's worst case — a live replica offers no such
/// request, so the log is rebuilt for it).
fn ot_probe(member: &Site<Char>, schedule: &Schedule) -> (usize, f64, f64) {
    let final_h = member.engine().log().len();
    let t1 = median_us(|| {
        let mut site = member.clone();
        let len = site.document().len();
        let t = Instant::now();
        std::hint::black_box(site.generate(Op::ins(len / 2 + 1, 'T')).expect("granted"));
        t.elapsed().as_nanos()
    });

    let d0: String = ('a'..='z').cycle().take(final_h + 16).collect();
    let d0 = CharDocument::from_str(&d0);
    let mut loaded: Site<Char> = Site::new_user(1, 0, d0.clone(), initial_policy(2));
    let mut remote: Site<Char> = Site::new_user(2, 0, d0, initial_policy(2));
    let pending = remote.generate(Op::ins(1, 'R')).expect("granted");
    for e in schedule.edits[0].iter().cycle().take(final_h) {
        let doc = loaded.document();
        let pos = e.position(doc.len());
        let letter = char::from(e.letter);
        let op = match e.kind {
            EditKind::Ins => Op::ins(pos, letter),
            EditKind::Del => Op::del(pos, *doc.get(pos).expect("in range")),
            EditKind::Up => Op::up(pos, *doc.get(pos).expect("in range"), letter),
        };
        loaded.generate(op).expect("granted");
    }
    let t2 = median_us(|| {
        let mut site = loaded.clone();
        let t = Instant::now();
        site.receive(Message::Coop(pending.clone())).expect("integrates");
        t.elapsed().as_nanos()
    });
    (final_h, t1, t2)
}

/// `EngineStore::open` + `recover_doc` on a copy of the directory the
/// dropped server left behind, configured as the server configures it.
fn recover_doc_s(copy: &Path) -> Result<f64, String> {
    let cfg = StoreConfig {
        fsync: FsyncPolicy::EveryN(32),
        snapshot_every: u64::MAX,
        auto_snapshot: false,
        retain_snapshots: 2,
    };
    let t = Instant::now();
    let store: EngineStore<Char> =
        EngineStore::open(&copy.join("session-1"), 0, 0, cfg, ObsHandle::disabled())
            .map_err(|e| format!("open {}: {e}", copy.display()))?;
    let initial = dce_server::ServerConfig::default().doc;
    let recovery = store
        .recover_doc(DOC, || {
            Site::new_admin(0, CharDocument::from_str(&initial), initial_policy(2))
        })
        .map_err(|e| format!("recover {}: {e}", copy.display()))?;
    std::hint::black_box(&recovery.site);
    Ok(t.elapsed().as_secs_f64())
}
