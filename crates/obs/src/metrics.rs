//! The named-metric registry: counters, gauges, histograms, and the
//! Prometheus text renderer.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a short mutex and
//! is idempotent by name: every caller asking for the same name gets a
//! handle to the same underlying cells, which is exactly how four
//! serving layers end up reporting into one registry. Handles are cheap
//! clones; bumping them never touches the registry lock again.
//!
//! Naming scheme (see DESIGN.md "Observability"):
//! `cpr_<layer>_<what>[_<unit>]`, with `_total` for counters and `_us`
//! for microsecond histograms — e.g. `cpr_server_received_total`,
//! `cpr_registry_serve_us`.

use crate::hist::{Histogram, HIST_BUCKETS};
use crate::trace::EventTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter handle (one relaxed `fetch_add` per bump).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable signed level (queue depths, in-flight).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    fn new() -> Self {
        Self(Arc::new(AtomicI64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Gauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

/// The shared metric hub: a sorted name → metric map plus the lifecycle
/// [`EventTrace`]. One instance per serving stack — `ModelRegistry`
/// owns (or is handed) one, and the pipeline, store, and server all
/// register into it. See the crate docs for the consistency contract.
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    trace: EventTrace,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A registry with the default event-trace capacity (1024).
    pub fn new() -> Self {
        Self::with_event_capacity(1024)
    }

    /// A registry retaining at most `capacity` trace events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            metrics: Mutex::new(BTreeMap::new()),
            trace: EventTrace::new(capacity),
        }
    }

    /// The lifecycle event trace.
    pub fn events(&self) -> &EventTrace {
        &self.trace
    }

    /// Get-or-create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind — that
    /// is a wiring bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("metrics poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Get-or-create the gauge `name` (panics on a kind mismatch).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("metrics poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get-or-create the histogram `name` (panics on a kind mismatch).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("metrics poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// The current value of a registered counter, if any — what tests
    /// use to cross-check exported totals against stats structs.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.lock().expect("metrics poisoned").get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// A snapshot of a registered histogram, if any.
    pub fn histogram_snapshot(&self, name: &str) -> Option<crate::HistSnapshot> {
        match self.metrics.lock().expect("metrics poisoned").get(name) {
            Some(Metric::Histogram(h)) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Render every registered metric as Prometheus text exposition
    /// (format version 0.0.4): `# TYPE` per family; histograms as
    /// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
    /// Deterministic: names render in sorted order.
    pub fn render(&self) -> String {
        let m = self.metrics.lock().expect("metrics poisoned");
        let mut out = String::with_capacity(m.len() * 64);
        for (name, metric) in m.iter() {
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, &n) in snap.buckets.iter().enumerate() {
                        cum += n;
                        if i == HIST_BUCKETS - 1 {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                        } else {
                            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", 1u64 << i);
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {cum}");
                }
            }
        }
        out
    }
}

// One hub shared across every serving thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<Histogram>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let obs = MetricsRegistry::new();
        let a = obs.counter("cpr_x_total");
        let b = obs.counter("cpr_x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(obs.counter_value("cpr_x_total"), Some(3));
        let h1 = obs.histogram("cpr_x_us");
        let h2 = obs.histogram("cpr_x_us");
        assert!(h1.same(&h2));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_is_a_wiring_bug() {
        let obs = MetricsRegistry::new();
        obs.counter("cpr_x_total");
        obs.gauge("cpr_x_total");
    }

    #[test]
    fn render_is_sorted_and_cumulative() {
        let obs = MetricsRegistry::new();
        obs.counter("cpr_b_total").add(7);
        obs.gauge("cpr_c_depth").set(-2);
        let h = obs.histogram("cpr_a_us");
        h.record(1);
        h.record(3);
        h.record(1 << 30); // overflow bucket
        let text = obs.render();
        // Sorted: histogram a before counter b before gauge c.
        let (pa, pb, pc) = (
            text.find("# TYPE cpr_a_us histogram").unwrap(),
            text.find("# TYPE cpr_b_total counter").unwrap(),
            text.find("# TYPE cpr_c_depth gauge").unwrap(),
        );
        assert!(pa < pb && pb < pc);
        assert!(text.contains("cpr_b_total 7\n"));
        assert!(text.contains("cpr_c_depth -2\n"));
        // Cumulative buckets: le=1 has 1, le=4 has 2, +Inf has all 3.
        assert!(text.contains("cpr_a_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("cpr_a_us_bucket{le=\"4\"} 2\n"));
        assert!(text.contains("cpr_a_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("cpr_a_us_count 3\n"));
        // Two scrapes of the same state are byte-identical.
        assert_eq!(text, obs.render());
    }
}
