//! The metric tables: what this program reports, and the contract in
//! `/BENCHMARK.json` (direction and bound per end-to-end metric) that
//! `compare` judges by. `tests/contract.rs` holds the two together.

use crate::trace::Name;
use dce_trace::json::{self, Value};
use std::path::{Path, PathBuf};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("validate_p50_ms", "ms"),
    ("validate_p99_ms", "ms"),
    ("visible_p50_ms", "ms"),
    ("visible_p99_ms", "ms"),
    ("keystroke_p99_us", "us"),
    ("goodput_ops_s", "ops/s"),
];

/// The three figures every timed layer call is summarised by.
pub const TIMED_SUFFIXES: [(&str, &str); 3] =
    [("_p50", "ns"), ("_p99", "ns"), ("_busy_share", "ratio")];

/// Timed layers (`T` in the README): `<name>_p50`, `_p99`, `_busy_share`,
/// each with the span name its calls are recorded under.
pub const TIMED: [(&str, Name); 12] = [
    ("core.generate_ns", Name::CoreGenerate),
    ("core.receive_coop_ns", Name::CoreReceiveCoop),
    ("core.receive_admin_ns", Name::CoreReceiveAdmin),
    ("policy.check_local_ns", Name::PolicyCheckLocal),
    ("net.reliable.send_ns", Name::ReliableSend),
    ("net.reliable.on_data_ns", Name::ReliableOnData),
    ("net.frame.encode_ns", Name::FrameEncode),
    ("net.frame.decode_ns", Name::FrameDecode),
    ("wire.write_ns", Name::WireWrite),
    ("wire.read_ns", Name::WireRead),
    ("server.rtt_ns", Name::ServerRtt),
    ("bench.settle_poll_ns", Name::SettlePoll),
];

/// Every other per-layer metric `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 53] = [
    // End-to-end figures only one workload defines (the contract wants
    // every end-to-end metric from every workload, so they live here).
    ("failed_share", "ratio"),
    ("enforce_p50_ms", "ms"),
    ("enforce_p90_ms", "ms"),
    ("recover_s", "s"),
    // The harness itself.
    ("bench.sched_lag_p99_us", "us"),
    ("bench.client_busy_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.samples", "count"),
    ("bench.threads", "count"),
    ("bench.path_self_p50_ms", "ms"),
    ("bench.traced_validate_p50_ms", "ms"),
    ("core.log_len_max", "count"),
    ("core.admin_log_len_max", "count"),
    ("core.queued_max", "count"),
    ("core.undone", "count"),
    ("core.denials", "count"),
    ("ot.final_h", "count"),
    ("ot.t1_at_final_h_us", "us"),
    ("ot.t2_at_final_h_us", "us"),
    ("policy.auths_final", "count"),
    ("policy.version_final", "count"),
    ("policy.denied_local", "count"),
    ("net.reliable.client_retransmits", "count"),
    ("net.reliable.dup_received", "count"),
    ("net.reliable.useful_share", "ratio"),
    ("net.reliable.unacked_depth_max", "count"),
    ("net.frame.bytes_out_per_op", "B/op"),
    ("net.frame.bytes_in_per_op", "B/op"),
    ("net.frame.frames_in_per_op", "1/op"),
    ("wire.writes_per_op", "1/op"),
    ("server.cpu_share", "ratio"),
    ("server.cpu_us_per_op", "us/op"),
    ("server.bind_s", "s"),
    ("server.delivered", "count"),
    ("server.retransmits", "count"),
    ("server.compactions", "count"),
    ("server.log_len", "count"),
    ("server.unacked_depth", "count"),
    ("site.drain_ns_mean", "ns"),
    ("site.drain_ns_p99", "ns"),
    ("server.read_ns_total", "ns"),
    ("server.write_ns_total", "ns"),
    ("server.timer_ns_total", "ns"),
    ("store.recover_doc_s", "s"),
    ("store.wal_bytes_per_op", "B/op"),
    ("store.appended", "count"),
    ("store.append_ns_mean", "ns"),
    ("store.fsync_ns_p99", "ns"),
    ("store.fsync_batch_mean", "count"),
    ("store.replayed", "count"),
    ("store.recover_replay_ns", "ns"),
    ("store.recover_snapshot_ns", "ns"),
    ("store.snapshot_written", "count"),
];

/// Every per-layer metric name with its unit, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (layer, _) in TIMED {
        for (suffix, unit) in TIMED_SUFFIXES {
            out.push((format!("{layer}{suffix}"), unit));
        }
    }
    out
}

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// What `compare` needs from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// `run_seconds`.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with direction and bound.
    pub end_to_end: Vec<Bounded>,
    /// Per-layer metric names with units.
    pub per_layer: Vec<(String, String)>,
}

/// Where `BENCHMARK.json` is: the working directory (how the driver
/// runs the benchmark), else beside this package.
pub fn contract_path() -> PathBuf {
    let here = PathBuf::from("BENCHMARK.json");
    if here.exists() {
        return here;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json")
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

impl Contract {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let root = json::parse(text)?;
        let list = |key: &str| {
            root.get(key).and_then(Value::as_arr).ok_or_else(|| format!("no `{key}` array"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key).and_then(Value::as_str).map(str::to_string).ok_or(format!("no `{key}`"))
        };
        let mut end_to_end = Vec::new();
        for m in list("end_to_end")? {
            end_to_end.push(Bounded {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                higher_is_better: text_of(m, "better")? == "higher",
                bound: m.get("bound").and_then(number).ok_or("no `bound`")?,
            });
        }
        let mut per_layer = Vec::new();
        for m in list("per_layer")? {
            per_layer.push((text_of(m, "name")?, text_of(m, "unit")?));
        }
        Ok(Contract {
            run_seconds: root.get("run_seconds").and_then(Value::as_u64).ok_or("no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end,
            per_layer,
        })
    }

    /// Loads the contract from [`contract_path`].
    pub fn load() -> Result<Contract, String> {
        let path = contract_path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Contract::parse(&text)
    }
}
