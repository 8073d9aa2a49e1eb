//! `compare A.json B.json`: judges two result files (as `run --out`
//! writes them) by the directions and bounds of `BENCHMARK.json`. One
//! row per (workload, end-to-end metric). A pair whose run-to-run spread
//! exceeds the metric's bound is *unresolved*, not *unchanged* — unless
//! every run of B reads on one side of every run of A.

use crate::run::Outcome;
use crate::spec::{self, Contract};
use crate::stats;
use dce_trace::json::{self, Value};
use std::collections::BTreeMap;

/// `workload → metric → values`, one value per untraced run.
pub type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Renders outcomes as a result file.
pub fn to_json(outcomes: &[Outcome]) -> String {
    let runs: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let metrics: Vec<String> = o
                .end_to_end
                .iter()
                .chain(&o.per_layer)
                .map(|m| format!("{}: {}", json::quote(&m.name), m.value))
                .collect();
            let segments: Vec<String> =
                o.segments.iter().map(|(n, v)| format!("{}: {v:?}", json::quote(n))).collect();
            format!(
                "  {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"correct\": {}, \
                 \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"segments\": {{{}}}}}",
                o.workload.name(),
                o.seed,
                o.traced,
                o.correct,
                o.attempted,
                o.failed,
                metrics.join(", "),
                segments.join(", ")
            )
        })
        .collect();
    format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"))
}

/// Reads the untraced runs of a result file.
pub fn parse(text: &str) -> Result<Results, String> {
    let root = json::parse(text)?;
    let runs = root.get("runs").and_then(Value::as_arr).ok_or("no `runs` array")?;
    let mut out = Results::new();
    for run in runs {
        if matches!(run.get("traced"), Some(Value::Bool(true))) {
            continue;
        }
        let workload = run.get("workload").and_then(Value::as_str).ok_or("run without workload")?;
        let Some(Value::Obj(metrics)) = run.get("metrics") else {
            return Err("run without metrics".into());
        };
        for (name, v) in metrics {
            let value =
                spec::number(v).ok_or_else(|| format!("{workload}.{name} is not a number"))?;
            out.entry(workload.into()).or_default().entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

/// How one (workload, metric) pair came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is better than A's by more than the bound, and the
    /// spread allows saying so.
    Better,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The spread between runs exceeds the bound: nothing can be said.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Medians of A and B.
    pub medians: (f64, f64),
    /// How much worse B's median is than A's, as a share of A's
    /// (negative = better).
    pub worse_by: f64,
    /// The larger of the two run-to-run spreads.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The call.
    pub verdict: Verdict,
}

/// Judges B against A.
pub fn compare(contract: &Contract, a: &Results, b: &Results) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &contract.workloads {
        for m in &contract.end_to_end {
            let values = |r: &Results| r.get(workload).and_then(|w| w.get(&m.name)).cloned();
            let (Some(va), Some(vb)) = (values(a), values(b)) else { continue };
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let sign = if m.higher_is_better { -1.0 } else { 1.0 };
            let worse_by = sign * (mb - ma) / ma.abs();
            let spread = stats::spread(&va).max(stats::spread(&vb));
            // "Every run of B on one side of every run of A" settles a
            // pair even when the spread is wide.
            let worse = |x: f64, y: f64| sign * (x - y) > 0.0;
            let all_worse = vb.iter().all(|&x| va.iter().all(|&y| worse(x, y)));
            let all_better = vb.iter().all(|&x| va.iter().all(|&y| worse(y, x)));
            let verdict = if worse_by > m.bound && (spread <= m.bound || all_worse) {
                Verdict::Regression
            } else if spread > m.bound && !all_better {
                Verdict::Unresolved
            } else if worse_by < -m.bound {
                Verdict::Better
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                medians: (ma, mb),
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// Prints the table; `true` when no row is a regression.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<10} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.medians.0,
            r.medians.1,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Better => "better",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    rows.iter().all(|r| r.verdict != Verdict::Regression)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Bounded;

    fn contract() -> Contract {
        Contract {
            run_seconds: 1,
            workloads: vec!["w".into()],
            end_to_end: vec![
                Bounded {
                    name: "lat".into(),
                    unit: "ms".into(),
                    higher_is_better: false,
                    bound: 0.1,
                },
                Bounded {
                    name: "rate".into(),
                    unit: "1/s".into(),
                    higher_is_better: true,
                    bound: 0.1,
                },
            ],
            per_layer: Vec::new(),
        }
    }

    fn results(lat: &[f64], rate: &[f64]) -> Results {
        let mut r = Results::new();
        let w = r.entry("w".into()).or_default();
        w.insert("lat".into(), lat.to_vec());
        w.insert("rate".into(), rate.to_vec());
        r
    }

    #[test]
    fn directions_and_bounds_decide() {
        let a = results(&[1.0, 1.01, 0.99, 1.0], &[100.0, 101.0, 99.0, 100.0]);
        let b = results(&[1.2, 1.21, 1.19, 1.2], &[80.0, 81.0, 79.0, 80.0]);
        let rows = compare(&contract(), &a, &b);
        assert_eq!(rows[0].verdict, Verdict::Regression, "latency rose 20 %");
        assert_eq!(rows[1].verdict, Verdict::Regression, "rate fell 20 %");
        let rows = compare(&contract(), &b, &a);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Better));
        let rows = compare(&contract(), &a, &a);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let a = results(&[1.0, 1.4, 0.7, 1.1], &[100.0; 4]);
        let b = results(&[1.05, 1.3, 0.8, 1.0], &[100.0; 4]);
        assert_eq!(compare(&contract(), &a, &b)[0].verdict, Verdict::Unresolved);
        // …unless every run of B is worse than every run of A.
        let b = results(&[2.0, 2.6, 1.9, 2.2], &[100.0; 4]);
        assert_eq!(compare(&contract(), &a, &b)[0].verdict, Verdict::Regression);
    }

    #[test]
    fn result_files_round_trip() {
        let text = "{\"runs\": [\n  {\"workload\": \"w\", \"seed\": 1, \"traced\": false, \
                    \"metrics\": {\"lat\": 1.5, \"rate\": 3}},\n  {\"workload\": \"w\", \
                    \"seed\": 2, \"traced\": true, \"metrics\": {\"lat\": 9.0}}\n]}";
        let r = parse(text).unwrap();
        assert_eq!(r["w"]["lat"], vec![1.5], "traced runs are left out");
        assert_eq!(r["w"]["rate"], vec![3.0]);
    }
}
