//! The metrics registry: counters, gauges and HDR-style log-linear
//! histograms, with a [`MetricsReport`] snapshot serialized by hand to
//! JSON (no JSON dependency is available offline, so
//! `results/BENCH_obs.json` is written the same way the `hotpaths` bin
//! writes its report).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the count.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins sampled value (queue depth, memo hit rate ×1000, …).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Records the latest sample.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
    /// Latest sample.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS = 16` linear sub-buckets, HDR-histogram style, so a
/// reported quantile is within `1/16 = 6.25%` of the true value instead
/// of the 2× a plain log₂ layout allows.
const SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << SUB_BITS; // 16

/// Total bucket count. Values below `2·SUB_COUNT = 32` get an exact
/// bucket each (indices 0..32); above that, octave `m` (values with
/// most-significant bit `m`, `m ≥ 5`) contributes `SUB_COUNT` buckets at
/// indices `[(m−4)·16 + 16, (m−4)·16 + 32)`. The top octave (`m = 63`)
/// ends at index `59·16 + 31 = 975`.
const BUCKETS: usize = 59 * SUB_COUNT + 2 * SUB_COUNT; // 976

/// Number of histogram buckets — the exclusive upper bound on the bucket
/// indices a [`HistogramSnapshot::buckets`] list may carry. Exported so
/// wire codecs can validate indices before trusting them.
pub const HIST_BUCKETS: usize = BUCKETS;

#[derive(Debug)]
struct HistCore {
    /// Log-linear bucket counts; see [`bucket_index`]. A flat array of
    /// relaxed atomics keeps recording wait-free and O(1).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log-linear (HDR-style) histogram: values are `u64`, typically
/// nanoseconds; recording is three relaxed `fetch_add`s.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, || AtomicU64::new(0));
        Histogram(Arc::new(HistCore { buckets, count: AtomicU64::new(0), sum: AtomicU64::new(0) }))
    }
}

/// Maps a value to its bucket. Values `< 32` are exact (index = value);
/// for larger values the index is `shift·16 + (v >> shift)` where
/// `shift = msb(v) − 4`, i.e. the top five bits of `v` select a
/// sub-bucket within its octave.
fn bucket_index(v: u64) -> usize {
    if v < (2 * SUB_COUNT) as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    (shift as usize) * SUB_COUNT + (v >> shift) as usize
}

/// Lower bound of bucket `i` (the value reported for quantiles).
/// Out-of-range indices clamp to the top bucket rather than overflowing
/// the shift — snapshots built from untrusted bytes stay total.
fn bucket_floor(i: usize) -> u64 {
    let i = i.min(BUCKETS - 1);
    if i < 2 * SUB_COUNT {
        return i as u64;
    }
    let shift = (i / SUB_COUNT - 1) as u32;
    ((i % SUB_COUNT + SUB_COUNT) as u64) << shift
}

/// Inclusive upper bound of bucket `i`. The top bucket is capped at
/// `u64::MAX` — its nominal ceiling would overflow the shift.
fn bucket_ceiling(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_floor(i + 1) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Takes a point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.0.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u16, c));
            }
        }
        let count = self.0.count.load(Ordering::Relaxed);
        let sum = self.0.sum.load(Ordering::Relaxed);
        HistogramSnapshot::from_buckets(count, sum, buckets)
    }
}

/// Quantile over a sparse `(bucket index, count)` list sorted by index:
/// the floor of the bucket holding the rank-`⌈count·q⌉` observation.
fn quantile(buckets: &[(u16, u64)], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for &(i, c) in buckets {
        // Saturating: a decoded scrape's counts are outside input.
        seen = seen.saturating_add(c);
        if seen >= rank {
            return bucket_floor(i as usize);
        }
    }
    buckets.last().map(|&(i, _)| bucket_floor(i as usize)).unwrap_or(0)
}

/// Point-in-time histogram summary. Quantiles are bucket lower bounds
/// (≤ true value, within 6.25%); `max` is the upper bound of the highest
/// occupied bucket. Carries the sparse bucket counts so two snapshots
/// can be diffed ([`HistogramSnapshot::delta`]) with quantiles recomputed
/// over just the interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Upper bound on the largest observation.
    pub max: u64,
    /// Non-zero buckets as `(bucket index, count)`, ascending by index.
    pub buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw totals plus sparse bucket counts,
    /// deriving the quantiles. `buckets` must be sorted by index.
    pub fn from_buckets(count: u64, sum: u64, buckets: Vec<(u16, u64)>) -> Self {
        HistogramSnapshot {
            count,
            sum,
            p50: quantile(&buckets, count, 0.50),
            p95: quantile(&buckets, count, 0.95),
            p99: quantile(&buckets, count, 0.99),
            max: buckets.last().map(|&(i, _)| bucket_ceiling(i as usize)).unwrap_or(0),
            buckets,
        }
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The observations recorded since `earlier` (an older snapshot of
    /// the same histogram): bucket-wise saturating difference with
    /// quantiles recomputed over just the interval.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut old: BTreeMap<u16, u64> = earlier.buckets.iter().copied().collect();
        let mut buckets = Vec::new();
        for &(i, c) in &self.buckets {
            let d = c.saturating_sub(old.remove(&i).unwrap_or(0));
            if d > 0 {
                buckets.push((i, d));
            }
        }
        HistogramSnapshot::from_buckets(
            self.count.saturating_sub(earlier.count),
            self.sum.saturating_sub(earlier.sum),
            buckets,
        )
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A name→instrument registry. Instruments are registered on first use
/// and handed out as cheap clones (all state is behind `Arc`s), so hot
/// paths hold their instrument and never touch the registry lock.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<BTreeMap<String, Instrument>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Returns the counter named `name`, registering it if new.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| Instrument::Counter(Counter::default()))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge named `name`, registering it if new.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram named `name`, registering it if new.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Histogram::default()))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Takes a point-in-time snapshot of every registered instrument.
    /// `at_ns` is left 0; callers with a clock ([`crate::ObsHandle`], the
    /// server's scrape path) stamp it so scrapes can be diffed into rates.
    pub fn snapshot(&self) -> MetricsReport {
        let map = self.inner.lock().expect("metrics registry poisoned");
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => {
                    counters.insert(name.clone(), c.get());
                }
                Instrument::Gauge(g) => {
                    gauges.insert(name.clone(), g.get());
                }
                Instrument::Histogram(h) => {
                    histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        MetricsReport { at_ns: 0, counters, gauges, histograms }
    }
}

/// A frozen snapshot of a [`Metrics`] registry, serializable to JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Monotonic snapshot time in nanoseconds (since the recording
    /// handle's origin). Two scrapes of the same process share an origin,
    /// so `later.at_ns − earlier.at_ns` is the wall interval between
    /// them; [`MetricsReport::delta`] carries exactly that difference.
    pub at_ns: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsReport {
    /// What happened between `earlier` and `self` (two scrapes of the
    /// same process, `earlier` first): counters and histograms are
    /// subtracted (saturating — a restarted process just reads as a
    /// fresh interval), gauges keep their latest sample, and `at_ns`
    /// becomes the interval length so callers can divide into rates.
    pub fn delta(&self, earlier: &MetricsReport) -> MetricsReport {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| match earlier.histograms.get(k) {
                Some(old) => (k.clone(), h.delta(old)),
                None => (k.clone(), h.clone()),
            })
            .collect();
        MetricsReport {
            at_ns: self.at_ns.saturating_sub(earlier.at_ns),
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Renders the report as pretty-printed JSON. Hand-rolled because no
    /// JSON dependency is available offline; names come from `BTreeMap`s so the
    /// output is deterministic, and they are escaped — a metric name is
    /// normally a bare dotted path, but nothing enforces that.
    pub fn to_json(&self) -> String {
        let counters = json_map(self.counters.iter().map(|(k, v)| (k.as_str(), v.to_string())));
        let gauges = json_map(self.gauges.iter().map(|(k, v)| (k.as_str(), v.to_string())));
        let histograms = json_map(self.histograms.iter().map(|(k, h)| {
            (
                k.as_str(),
                format!(
                    "{{ \"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }}",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                ),
            )
        }));
        format!(
            "{{\n  \"at_ns\": {},\n  \"counters\": {counters},\n  \"gauges\": {gauges},\n  \"histograms\": {histograms}\n}}\n",
            self.at_ns
        )
    }
}

/// Escapes a string for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_map<'a>(entries: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> =
        entries.map(|(k, v)| format!("    \"{}\": {v}", json_escape(k))).collect();
    if body.is_empty() {
        "{}".to_string()
    } else {
        format!("{{\n{}\n  }}", body.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let m = Metrics::new();
        let c = m.counter("ops");
        c.inc();
        c.add(4);
        let g = m.gauge("depth");
        g.set(7);
        let snap = m.snapshot();
        assert_eq!(snap.counters["ops"], 5);
        assert_eq!(snap.gauges["depth"], 7);
    }

    #[test]
    fn registry_hands_out_shared_instruments() {
        let m = Metrics::new();
        m.counter("x").inc();
        m.counter("x").inc();
        assert_eq!(m.snapshot().counters["x"], 2);
    }

    #[test]
    fn small_values_are_exact() {
        // Below 32 every value owns a bucket: quantiles are exact.
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
            assert_eq!(bucket_ceiling(v as usize), v);
        }
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        // Floors are strictly increasing and each bucket's ceiling abuts
        // the next floor, so every u64 lands in exactly one bucket.
        for i in 0..BUCKETS - 1 {
            assert!(bucket_floor(i) < bucket_floor(i + 1), "floor not increasing at {i}");
            assert_eq!(bucket_ceiling(i), bucket_floor(i + 1) - 1);
        }
        assert_eq!(bucket_ceiling(BUCKETS - 1), u64::MAX);
        // Round-trip: a bucket's floor and ceiling both map back to it.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i);
            assert_eq!(bucket_index(bucket_ceiling(i)), i);
        }
    }

    #[test]
    fn quantile_error_is_within_one_sixteenth() {
        // 1..=1000: the reported quantile must sit within 6.25% below the
        // true order statistic (bucket floors never overshoot).
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        for (q, true_rank) in [(s.p50, 500u64), (s.p95, 950), (s.p99, 990)] {
            assert!(q <= true_rank, "quantile {q} overshoots true {true_rank}");
            assert!(
                (true_rank - q) as f64 <= true_rank as f64 / 16.0,
                "quantile {q} more than 6.25% below true {true_rank}"
            );
        }
        assert!(s.max >= 1000 && s.max < 1063, "max {} should tightly bound 1000", s.max);
    }

    #[test]
    fn exact_quantiles_on_small_values() {
        let h = Histogram::default();
        for v in 1..=20u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.p50, 10);
        assert_eq!(s.p95, 19);
        assert_eq!(s.p99, 20);
        assert_eq!(s.max, 20);
    }

    #[test]
    fn histogram_buckets() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.p50, 3); // 3rd of 5 sorted; small values are exact
        assert_eq!(s.p99, 992); // 1000 lives in [992, 1024)
        assert!(s.max >= 1000);
        assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn histogram_value_zero() {
        let h = Histogram::default();
        h.observe(0);
        let s = h.snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 1,
                sum: 0,
                p50: 0,
                p95: 0,
                p99: 0,
                max: 0,
                buckets: vec![(0, 1)],
            }
        );
    }

    #[test]
    fn histogram_u64_max_does_not_overflow() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_ceiling(BUCKETS - 1), u64::MAX);
        let h = Histogram::default();
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.p50, bucket_floor(BUCKETS - 1), "top bucket's floor");
        assert_eq!(s.max, u64::MAX);
        // Wrapping `sum` on a second observation is documented behavior of
        // the relaxed atomic add; the bucket counts stay exact.
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn histogram_power_of_two_boundaries() {
        // An exact power of two opens its octave's first sub-bucket and
        // is that bucket's floor, so powers of two report exactly.
        for k in 0..64u32 {
            let v = 1u64 << k;
            let i = bucket_index(v);
            assert_eq!(bucket_floor(i), v, "2^{k} must be its bucket's floor");
            if v > 32 {
                assert_eq!(bucket_index(v - 1), i - 1, "2^{k}−1 closes the previous bucket");
            }
        }
        let h = Histogram::default();
        h.observe(1024);
        let s = h.snapshot();
        assert_eq!(s.p50, 1024);
        assert_eq!(s.max, 1087); // ceiling of [1024, 1088)
    }

    #[test]
    fn histogram_empty() {
        let s = Histogram::default().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn histogram_delta_isolates_the_interval() {
        let h = Histogram::default();
        for v in [10u64, 20, 30] {
            h.observe(v);
        }
        let early = h.snapshot();
        for v in [5u64, 5, 25] {
            h.observe(v);
        }
        let late = h.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 35);
        assert_eq!(d.p50, 5); // interval observations only: [5, 5, 25]
        assert_eq!(d.max, 25);
        assert_eq!(d.buckets, vec![(5, 2), (25, 1)]);
        // Delta against self is empty.
        assert_eq!(late.delta(&late), HistogramSnapshot::default());
    }

    #[test]
    fn report_delta_subtracts_counters_and_stamps_interval() {
        let m = Metrics::new();
        m.counter("ops").add(10);
        m.gauge("depth").set(3);
        m.histogram("lat").observe(7);
        let mut early = m.snapshot();
        early.at_ns = 1_000;
        m.counter("ops").add(5);
        m.gauge("depth").set(9);
        m.histogram("lat").observe(8);
        let mut late = m.snapshot();
        late.at_ns = 4_000;
        let d = late.delta(&early);
        assert_eq!(d.at_ns, 3_000);
        assert_eq!(d.counters["ops"], 5);
        assert_eq!(d.gauges["depth"], 9, "gauges keep the latest sample");
        assert_eq!(d.histograms["lat"].count, 1);
        assert_eq!(d.histograms["lat"].p50, 8);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let m = Metrics::new();
        m.counter("x");
        m.gauge("x");
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let m = Metrics::new();
        m.counter("a").add(3);
        m.gauge("b").set(9);
        m.histogram("c").observe(5);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"at_ns\": 0"));
        assert!(json.contains("\"a\": 3"));
        assert!(json.contains("\"b\": 9"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"p95\": 5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn report_json_escapes_names() {
        let m = Metrics::new();
        m.counter("weird\"name\\with\nstuff").add(1);
        let json = m.snapshot().to_json();
        assert!(json.contains("weird\\\"name\\\\with\\nstuff"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_report_json_balanced() {
        let json = MetricsReport::default().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
