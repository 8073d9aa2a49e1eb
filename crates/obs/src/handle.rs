//! [`ObsHandle`] — the cheap, cloneable capability the stack threads
//! through `Site`, `SimNet` and the editor sessions.
//!
//! The handle is an `Option<Arc<…>>`: disabled (the default), every
//! emission is a single branch on `None` — no allocation, no atomics,
//! no locks — which is what keeps the PR 2 bench numbers intact when
//! nothing is observing. Enabled, all clones share one journal, one
//! metrics registry and one lamport clock, so a whole simulated group
//! writes a single merged, totally ordered trace.
//!
//! Two optional extras serve `dce-trace`:
//!
//! * a **time source** — the owner of the handle can install either the
//!   simulated-network clock ([`ObsHandle::use_sim_time`] +
//!   [`ObsHandle::set_now`]) or wall-clock time
//!   ([`ObsHandle::use_wall_time`]); every event is then stamped with
//!   `at`, the raw material for span latency attribution;
//! * a **failure hook** — [`ObsHandle::set_failure_hook`] registers a
//!   callback that [`ObsHandle::failure`] invokes with the journal and a
//!   metrics snapshot. Oracles call `failure` just before panicking, so
//!   an armed flight recorder dumps the evidence even when the process
//!   is about to unwind.

use crate::event::{Event, EventKind, SiteId};
use crate::metrics::{Counter, Metrics, MetricsReport};
use crate::record::{NoopRecorder, Recorder, RingRecorder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A failure callback: `(reason, journal, metrics snapshot)`. The hook
/// receives the data by reference so it never needs to hold the handle
/// (which would create an `Arc` cycle).
pub type FailureHook = Box<dyn Fn(&str, &[Event], &MetricsReport) + Send + Sync>;

const TIME_NONE: u8 = 0;
const TIME_SIM: u8 = 1;
const TIME_WALL: u8 = 2;

struct Obs {
    recorder: Arc<dyn Recorder>,
    metrics: Metrics,
    /// Process-wide logical clock: one tick per recorded event.
    lamport: AtomicU64,
    /// Per-site emission sequence numbers.
    site_seq: Mutex<HashMap<SiteId, u64>>,
    /// Derived per-kind counters, resolved once so `emit` never touches
    /// the registry lock.
    kind_counters: Mutex<HashMap<&'static str, Counter>>,
    /// Which time source stamps `Event::at` (none / sim / wall).
    time_mode: AtomicU8,
    /// The simulated clock, pushed by the driver via [`ObsHandle::set_now`].
    sim_now: AtomicU64,
    /// Wall-clock origin for [`ObsHandle::use_wall_time`] mode.
    origin: Instant,
    /// Callback for [`ObsHandle::failure`] (flight recorder arm point).
    failure_hook: Mutex<Option<FailureHook>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("recorder", &self.recorder)
            .field("lamport", &self.lamport)
            .field("time_mode", &self.time_mode)
            .finish_non_exhaustive()
    }
}

/// Shared observability capability. See the module docs.
///
/// A handle optionally carries a **document tag** ([`ObsHandle::for_doc`]):
/// a re-keyed clone sharing the same journal/registry/clock whose events
/// are stamped with the document id and whose histogram/counter writes go
/// to both the process-wide rollup name and a per-shard `…·docN` series.
/// The tag lives outside the shared `Arc`, so one process-wide `Obs` can
/// serve thousands of shards with one cheap clone per shard.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<Obs>>,
    /// Document (shard) tag stamped onto events and scoped metric names.
    /// `0` = untagged (the single-document default).
    doc: u64,
}

impl ObsHandle {
    /// A disabled handle: every operation is a no-op costing one branch.
    pub fn disabled() -> Self {
        ObsHandle::default()
    }

    /// An enabled handle journaling the last `capacity` events into a
    /// ring buffer, with a fresh metrics registry.
    pub fn recording(capacity: usize) -> Self {
        ObsHandle::with_recorder(Arc::new(RingRecorder::new(capacity)))
    }

    /// An enabled handle with metrics only (events are discarded).
    pub fn metrics_only() -> Self {
        ObsHandle::with_recorder(Arc::new(NoopRecorder))
    }

    /// An enabled handle over a caller-supplied sink.
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> Self {
        ObsHandle {
            doc: 0,
            inner: Some(Arc::new(Obs {
                recorder,
                metrics: Metrics::new(),
                lamport: AtomicU64::new(0),
                site_seq: Mutex::new(HashMap::new()),
                kind_counters: Mutex::new(HashMap::new()),
                time_mode: AtomicU8::new(TIME_NONE),
                sim_now: AtomicU64::new(0),
                origin: Instant::now(),
                failure_hook: Mutex::new(None),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone of this handle re-keyed onto document `doc`: same journal,
    /// registry and lamport clock, but events are stamped with `doc` and
    /// histogram/counter writes also feed a per-shard `…·docN` series.
    /// `for_doc(0)` returns an untagged handle.
    pub fn for_doc(&self, doc: u64) -> ObsHandle {
        ObsHandle { inner: self.inner.clone(), doc }
    }

    /// The document tag this handle stamps (`0` = untagged).
    pub fn doc(&self) -> u64 {
        self.doc
    }

    /// The per-shard metric name for `name` under this handle's tag
    /// (`None` when untagged).
    fn scoped(&self, name: &str) -> Option<String> {
        (self.doc != 0).then(|| format!("{name}.doc{}", self.doc))
    }

    /// Stamps events with the simulated clock: `Event::at` becomes the
    /// last value pushed through [`ObsHandle::set_now`] (simulated-net
    /// milliseconds). The driving simulation calls this on installation.
    pub fn use_sim_time(&self) {
        if let Some(obs) = &self.inner {
            obs.time_mode.store(TIME_SIM, Ordering::Relaxed);
        }
    }

    /// Stamps events with wall-clock nanoseconds since the handle's
    /// creation — the right source for the socket server and load
    /// generator, where no simulated clock exists.
    pub fn use_wall_time(&self) {
        if let Some(obs) = &self.inner {
            obs.time_mode.store(TIME_WALL, Ordering::Relaxed);
        }
    }

    /// Advances the simulated clock (used with [`ObsHandle::use_sim_time`];
    /// one relaxed store). No-op when disabled.
    pub fn set_now(&self, now: u64) {
        if let Some(obs) = &self.inner {
            obs.sim_now.store(now, Ordering::Relaxed);
        }
    }

    /// Stamps and records one event, and bumps the per-kind derived
    /// counter (`event.<name>`). No-op when disabled.
    pub fn emit(&self, site: SiteId, version: u64, kind: EventKind) {
        let Some(obs) = &self.inner else { return };
        let lamport = obs.lamport.fetch_add(1, Ordering::AcqRel) + 1;
        let at = match obs.time_mode.load(Ordering::Relaxed) {
            TIME_SIM => obs.sim_now.load(Ordering::Relaxed),
            TIME_WALL => obs.origin.elapsed().as_nanos() as u64,
            _ => 0,
        };
        let seq = {
            let mut map = obs.site_seq.lock().expect("site_seq poisoned");
            let slot = map.entry(site).or_insert(0);
            *slot += 1;
            *slot
        };
        obs.recorder.record(Event { site, doc: self.doc, seq, version, lamport, at, kind });
        let counter = {
            let mut map = obs.kind_counters.lock().expect("kind_counters poisoned");
            map.entry(kind.name())
                .or_insert_with(|| obs.metrics.counter(&format!("event.{}", kind.name())))
                .clone()
        };
        counter.inc();
    }

    /// The journal so far (oldest first). Empty when disabled.
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map(|o| o.recorder.events()).unwrap_or_default()
    }

    /// How many events the journal evicted. 0 when disabled.
    pub fn overflowed(&self) -> u64 {
        self.inner.as_ref().map(|o| o.recorder.overflowed()).unwrap_or(0)
    }

    /// Registers the failure hook (replacing any previous one). No-op
    /// when disabled — arming a flight recorder on a disabled handle
    /// records nothing, matching every other operation.
    pub fn set_failure_hook(&self, hook: FailureHook) {
        if let Some(obs) = &self.inner {
            *obs.failure_hook.lock().expect("failure hook poisoned") = Some(hook);
        }
    }

    /// Reports an invariant failure: invokes the registered hook with
    /// `reason`, the current journal and a metrics snapshot. Returns
    /// `true` when a hook ran. Call this *before* panicking so the
    /// flight recorder can dump state the unwind would otherwise lose.
    pub fn failure(&self, reason: &str) -> bool {
        let Some(obs) = &self.inner else { return false };
        let guard = obs.failure_hook.lock().expect("failure hook poisoned");
        let Some(hook) = guard.as_ref() else { return false };
        let events = obs.recorder.events();
        let report = self.snapshot();
        hook(reason, &events, &report);
        true
    }

    /// Adds `n` to counter `name` — and, on a document-tagged handle, to
    /// the per-shard `name.docN` counter as well (per-shard series plus
    /// process rollup). No-op when disabled.
    pub fn add_counter(&self, name: &str, n: u64) {
        if let Some(obs) = &self.inner {
            obs.metrics.counter(name).add(n);
            if let Some(scoped) = self.scoped(name) {
                obs.metrics.counter(&scoped).add(n);
            }
        }
    }

    /// Sets gauge `name` to `v`. On a document-tagged handle the write
    /// goes to the per-shard `name.docN` gauge *only*: a process-wide
    /// rollup of a level metric would just be whichever shard wrote last.
    /// No-op when disabled.
    pub fn set_gauge(&self, name: &str, v: u64) {
        if let Some(obs) = &self.inner {
            match self.scoped(name) {
                Some(scoped) => obs.metrics.gauge(&scoped).set(v),
                None => obs.metrics.gauge(name).set(v),
            }
        }
    }

    /// Records `v` into histogram `name` — and, on a document-tagged
    /// handle, into the per-shard `name.docN` histogram as well (e.g.
    /// `site.drain_ns` rollup plus `site.drain_ns.doc7`). No-op when
    /// disabled.
    pub fn observe_hist(&self, name: &str, v: u64) {
        if let Some(obs) = &self.inner {
            obs.metrics.histogram(name).observe(v);
            if let Some(scoped) = self.scoped(name) {
                obs.metrics.histogram(&scoped).observe(v);
            }
        }
    }

    /// Snapshots the metrics registry, stamping [`MetricsReport::at_ns`]
    /// with monotonic nanoseconds since the handle's creation (so two
    /// scrapes diff into rates) and folding in the journal's overflow
    /// accounting when anything was evicted: `journal.overflowed` total,
    /// a per-kind `journal.overflow.<kind>` rollup, and — for events lost
    /// from a tagged document — a per-document
    /// `journal.overflow.<kind>.docN` series, so one hot document can't
    /// mask another's dropped history. Empty report when disabled.
    pub fn snapshot(&self) -> MetricsReport {
        let Some(obs) = &self.inner else { return MetricsReport::default() };
        let mut report = obs.metrics.snapshot();
        report.at_ns = obs.origin.elapsed().as_nanos() as u64;
        let evicted = obs.recorder.overflowed();
        if evicted > 0 {
            report.counters.insert("journal.overflowed".to_string(), evicted);
            for (kind, doc, n) in obs.recorder.overflow_breakdown() {
                *report.counters.entry(format!("journal.overflow.{kind}")).or_insert(0) += n;
                if doc != 0 {
                    report.counters.insert(format!("journal.overflow.{kind}.doc{doc}"), n);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReqId;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn disabled_is_inert() {
        let h = ObsHandle::disabled();
        assert!(!h.enabled());
        h.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, 1) });
        h.add_counter("x", 1);
        h.set_gauge("y", 2);
        h.observe_hist("z", 3);
        h.use_sim_time();
        h.set_now(99);
        h.set_failure_hook(Box::new(|_, _, _| panic!("must never run")));
        assert!(!h.failure("nothing to report"));
        assert!(h.events().is_empty());
        assert_eq!(h.snapshot(), MetricsReport::default());
    }

    #[test]
    fn clones_share_one_trace() {
        let h = ObsHandle::recording(64);
        let h2 = h.clone();
        h.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, 1) });
        h2.emit(2, 0, EventKind::ReqReceived { id: ReqId::new(1, 1) });
        let evs = h.events();
        assert_eq!(evs.len(), 2);
        // Lamport stamps are a total order across sites.
        assert_eq!(evs[0].lamport, 1);
        assert_eq!(evs[1].lamport, 2);
        // Per-site sequence numbers are independent.
        assert_eq!(evs[0].seq, 1);
        assert_eq!(evs[1].seq, 1);
        // Derived counters were bumped.
        let snap = h2.snapshot();
        assert_eq!(snap.counters["event.req_generated"], 1);
        assert_eq!(snap.counters["event.req_received"], 1);
    }

    #[test]
    fn doc_tagged_handles_stamp_events_and_scope_metrics() {
        let h = ObsHandle::recording(64);
        let d7 = h.for_doc(7);
        let d9 = h.for_doc(9);
        assert_eq!((h.doc(), d7.doc(), d9.doc()), (0, 7, 9));

        h.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, 1) });
        d7.emit(1, 0, EventKind::ReqReceived { id: ReqId::new(1, 1) });
        d9.emit(2, 0, EventKind::ReqReceived { id: ReqId::new(1, 1) });
        let evs = h.events();
        assert_eq!(evs.iter().map(|e| e.doc).collect::<Vec<_>>(), vec![0, 7, 9]);
        // Tagged clones share the journal and the lamport clock.
        assert_eq!(evs[2].lamport, 3);

        // Histograms and counters: per-shard series plus process rollup.
        d7.observe_hist("site.drain_ns", 100);
        d9.observe_hist("site.drain_ns", 200);
        h.observe_hist("site.drain_ns", 300);
        d7.add_counter("site.delivered", 2);
        h.add_counter("site.delivered", 1);
        // Gauges: a tagged write goes to the per-shard series only.
        d7.set_gauge("site.queue_depth_ready", 5);
        h.set_gauge("site.queue_depth_ready", 1);
        let snap = h.snapshot();
        assert_eq!(snap.histograms["site.drain_ns"].count, 3);
        assert_eq!(snap.histograms["site.drain_ns.doc7"].count, 1);
        assert_eq!(snap.histograms["site.drain_ns.doc9"].count, 1);
        assert_eq!(snap.counters["site.delivered"], 3);
        assert_eq!(snap.counters["site.delivered.doc7"], 2);
        assert_eq!(snap.gauges["site.queue_depth_ready.doc7"], 5);
        assert_eq!(snap.gauges["site.queue_depth_ready"], 1);

        // Untagging via for_doc(0) restores rollup-only behavior.
        let untagged = d7.for_doc(0);
        assert_eq!(untagged.doc(), 0);
    }

    #[test]
    fn metrics_only_discards_events() {
        let h = ObsHandle::metrics_only();
        h.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, 1) });
        assert!(h.events().is_empty());
        assert_eq!(h.snapshot().counters["event.req_generated"], 1);
    }

    #[test]
    fn sim_time_stamps_events() {
        let h = ObsHandle::recording(8);
        h.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, 1) });
        h.use_sim_time();
        h.set_now(42);
        h.emit(1, 0, EventKind::ReqExecuted { id: ReqId::new(1, 1) });
        h.set_now(99);
        h.emit(2, 0, EventKind::ReqReceived { id: ReqId::new(1, 1) });
        let evs = h.events();
        assert_eq!(evs[0].at, 0, "before a source is installed, at stays 0");
        assert_eq!(evs[1].at, 42);
        assert_eq!(evs[2].at, 99);
    }

    #[test]
    fn wall_time_is_monotone() {
        let h = ObsHandle::recording(8);
        h.use_wall_time();
        h.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, 1) });
        h.emit(1, 0, EventKind::ReqExecuted { id: ReqId::new(1, 1) });
        let evs = h.events();
        assert!(evs[0].at <= evs[1].at);
    }

    #[test]
    fn failure_hook_sees_journal_and_reason() {
        let h = ObsHandle::recording(8);
        h.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, 1) });
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        h.set_failure_hook(Box::new(move |reason, events, report| {
            assert_eq!(reason, "sites diverged");
            assert_eq!(events.len(), 1);
            assert_eq!(report.counters["event.req_generated"], 1);
            calls2.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(h.failure("sites diverged"));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn snapshot_carries_overflow_breakdown() {
        let h = ObsHandle::recording(2);
        for n in 1..=5 {
            h.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, n) });
        }
        let snap = h.snapshot();
        assert_eq!(snap.counters["journal.overflowed"], 3);
        assert_eq!(snap.counters["journal.overflow.req_generated"], 3);
        // The un-overflowed handle reports no overflow keys at all.
        let clean = ObsHandle::recording(64);
        clean.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, 1) });
        assert!(!clean.snapshot().counters.contains_key("journal.overflowed"));
    }

    #[test]
    fn snapshot_labels_overflow_by_document() {
        let h = ObsHandle::recording(2);
        let d7 = h.for_doc(7);
        let d9 = h.for_doc(9);
        // Fill the ring from doc 7, then lap it from doc 9: the evicted
        // events all belonged to doc 7 and must be attributed to it.
        for n in 1..=2 {
            d7.emit(1, 0, EventKind::ReqGenerated { id: ReqId::new(1, n) });
        }
        for n in 3..=4 {
            d9.emit(2, 0, EventKind::ReqGenerated { id: ReqId::new(2, n) });
        }
        let snap = h.snapshot();
        assert_eq!(snap.counters["journal.overflowed"], 2);
        assert_eq!(snap.counters["journal.overflow.req_generated"], 2);
        assert_eq!(snap.counters["journal.overflow.req_generated.doc7"], 2);
        assert!(!snap.counters.contains_key("journal.overflow.req_generated.doc9"));
    }

    #[test]
    fn snapshot_timestamps_are_monotone() {
        let h = ObsHandle::recording(8);
        let a = h.snapshot();
        let b = h.snapshot();
        assert!(b.at_ns >= a.at_ns);
        // The stamp makes consecutive scrapes diffable into an interval.
        assert_eq!(b.delta(&a).at_ns, b.at_ns - a.at_ns);
    }
}
