//! Live, process-wide metrics for the DiffProv stack.
//!
//! `dp-trace` (PR 5) answers *"what happened during that run?"* — its
//! aggregate is drained once, after the fact. This crate answers *"what is
//! happening right now?"*: a typed metric registry that every layer updates
//! as it works and that can be scraped at any moment, concurrently, without
//! pausing the workload. Four metric types cover the stack's needs:
//!
//! * **counters** — monotonic event totals (`AtomicU64`),
//! * **gauges** — instantaneous levels (`AtomicI64`),
//! * **histograms** — log2-bucketed distributions sharing the exact bucket
//!   layout of [`dp_trace::SpanStat`] (bucket `i` counts values in
//!   `[2^(i-1), 2^i)`, bucket 0 is `[0, 1)`, [`HIST_BUCKETS`] buckets), so
//!   a scrape and a drained trace aggregate bucket identically,
//! * **HLL sketches** — HyperLogLog cardinality estimators (see [`hll`])
//!   for "how many *distinct* flows/tuples/seeds" questions that exact
//!   counting cannot answer at engine scale.
//!
//! # The disabled fast path
//!
//! Like [`dp_trace::Tracer`], a [`Metrics`] handle is an
//! `Option<Arc<Registry>>`: the disabled handle is `None`, every
//! instrument handle minted from it is a `None` too, and every update on a
//! disabled instrument is one branch on an `Option` — no allocation, no
//! atomics, no locks. The `DP_METRICS` environment knob (read once per
//! process, like every other `DP_*` knob) selects the default for
//! [`Metrics::global`], which instrumented layers fall back to when no
//! handle was injected explicitly.
//!
//! # Concurrency and determinism
//!
//! Registration (first use of a name) takes a mutex; updates are lock-free
//! atomic ops on handles cached by the instrumented layer. Metrics are
//! strictly *passive*: enabling them changes no schedule, no join order,
//! no event stream — the differential suites prove the provenance stream
//! and trace skeleton stay bit-identical under `DP_METRICS=1`. Within the
//! registry itself there are two determinism classes, mirroring
//! `dp-trace`'s skeleton-vs-effort split: counts derived from the event
//! stream (engine semantic counters, HLL register contents) are
//! reproducible across runs, while latency histograms
//! and queue-depth gauges are wall-clock effort and legitimately vary.
//!
//! # Merging
//!
//! [`Metrics::absorb`] folds a [`Snapshot`] into a registry — counters and
//! histograms add, gauges add (they meter disjoint sources when merging
//! per-run registries), HLL sketches take the register-wise
//! max, which is exactly set union on the sketched multiset. All maps are
//! `BTreeMap`s, so a fold of the same snapshots in any order produces the
//! identical merged snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hll;

mod expose;
mod server;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use expose::{render_prometheus, validate_exposition};
pub use hll::{HllCell, HLL_PRECISION, HLL_REGISTERS};
pub use server::MetricsServer;

/// Number of log2 buckets in a histogram — shared with
/// [`dp_trace::SpanStat`] so both systems bucket identically.
pub const HIST_BUCKETS: usize = dp_trace::HIST_BUCKETS;

/// The histogram bucket a value falls into (the `dp-trace` layout).
pub fn bucket_index(v: u64) -> usize {
    dp_trace::SpanStat::bucket_index(v)
}

/// What a metric family measures — fixed at first registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event total.
    Counter,
    /// Instantaneous signed level.
    Gauge,
    /// Log2 histogram of durations, recorded in nanoseconds and exposed
    /// in seconds (Prometheus convention).
    TimeHistogram,
    /// Log2 histogram of dimensionless sizes (batch depths, tree sizes).
    SizeHistogram,
    /// HyperLogLog distinct-count sketch, exposed as a gauge holding the
    /// cardinality estimate.
    Hll,
}

impl MetricKind {
    /// Lowercase tag used in JSON output.
    pub fn tag(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::TimeHistogram => "time_histogram",
            MetricKind::SizeHistogram => "size_histogram",
            MetricKind::Hll => "hll",
        }
    }
}

/// Shared histogram cell: lock-free log2 buckets plus count and sum.
#[derive(Debug)]
pub struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// The shared storage behind one labeled series.
#[derive(Clone, Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Hist(Arc<HistCell>),
    Hll(Arc<HllCell>),
}

/// One metric family: a help string, a kind, and its labeled series.
#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<Vec<(String, String)>, Cell>,
}

/// The mutable registry state: families keyed by metric name.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    fn cell(&self, name: &str, help: &str, kind: MetricKind, labels: &[(&str, &str)]) -> Cell {
        let key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().unwrap();
        let fam = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric `{name}` registered as {:?} and {:?}",
            fam.kind,
            kind
        );
        fam.series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Cell::Counter(Arc::new(AtomicU64::new(0))),
                MetricKind::Gauge => Cell::Gauge(Arc::new(AtomicI64::new(0))),
                MetricKind::TimeHistogram | MetricKind::SizeHistogram => {
                    Cell::Hist(Arc::new(HistCell::new()))
                }
                MetricKind::Hll => Cell::Hll(Arc::new(HllCell::new())),
            })
            .clone()
    }
}

/// A cheap, cloneable handle to the process registry (or to nothing).
///
/// The disabled handle mints no-op instruments whose every update is a
/// single `Option` branch — the same ~zero disabled cost contract as
/// [`dp_trace::Tracer`].
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

fn env_metrics_enabled() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var("DP_METRICS")
            .map(|v| !matches!(v.as_str(), "" | "0" | "off"))
            .unwrap_or(false)
    })
}

impl Metrics {
    /// A handle that records nothing at ~zero cost.
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// A handle backed by a fresh, private registry.
    pub fn enabled() -> Self {
        Metrics {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// Enabled iff the `DP_METRICS` environment knob is truthy (read once
    /// per process; `0`, `off`, and empty mean disabled).
    pub fn from_env() -> Self {
        if env_metrics_enabled() {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        }
    }

    /// The process-wide default handle: one shared registry when
    /// `DP_METRICS` is truthy, the disabled handle otherwise. Layers
    /// without an explicitly injected handle fall back to this.
    pub fn global() -> &'static Metrics {
        static GLOBAL: OnceLock<Metrics> = OnceLock::new();
        GLOBAL.get_or_init(Metrics::from_env)
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Two handles sharing one registry.
    pub fn same_registry(&self, other: &Metrics) -> bool {
        match (&self.inner, &other.inner) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.inner.as_ref().map(|r| {
            match r.cell(name, help, MetricKind::Counter, labels) {
                Cell::Counter(c) => c,
                _ => unreachable!(),
            }
        }))
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a labeled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.inner.as_ref().map(|r| {
            match r.cell(name, help, MetricKind::Gauge, labels) {
                Cell::Gauge(g) => g,
                _ => unreachable!(),
            }
        }))
    }

    /// Registers (or finds) an unlabeled duration histogram (values in
    /// nanoseconds, exposed in seconds).
    pub fn time_histogram(&self, name: &str, help: &str) -> Histogram {
        self.time_histogram_with(name, help, &[])
    }

    /// Registers (or finds) a labeled duration histogram series.
    pub fn time_histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram(self.inner.as_ref().map(|r| {
            match r.cell(name, help, MetricKind::TimeHistogram, labels) {
                Cell::Hist(h) => h,
                _ => unreachable!(),
            }
        }))
    }

    /// Registers (or finds) an unlabeled size histogram (dimensionless).
    pub fn size_histogram(&self, name: &str, help: &str) -> Histogram {
        self.size_histogram_with(name, help, &[])
    }

    /// Registers (or finds) a labeled size histogram series.
    pub fn size_histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram(self.inner.as_ref().map(|r| {
            match r.cell(name, help, MetricKind::SizeHistogram, labels) {
                Cell::Hist(h) => h,
                _ => unreachable!(),
            }
        }))
    }

    /// Registers (or finds) an unlabeled HLL distinct-count sketch.
    pub fn hll(&self, name: &str, help: &str) -> Hll {
        self.hll_with(name, help, &[])
    }

    /// Registers (or finds) a labeled HLL sketch series.
    pub fn hll_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Hll {
        Hll(self.inner.as_ref().map(|r| {
            match r.cell(name, help, MetricKind::Hll, labels) {
                Cell::Hll(h) => h,
                _ => unreachable!(),
            }
        }))
    }

    /// A point-in-time copy of every family and series (empty when
    /// disabled). Safe to call while other threads keep updating.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(reg) = &self.inner else { return snap };
        let families = reg.families.lock().unwrap();
        for (name, fam) in families.iter() {
            let mut series = BTreeMap::new();
            for (labels, cell) in &fam.series {
                let point = match cell {
                    Cell::Counter(c) => Point::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => Point::Gauge(g.load(Ordering::Relaxed)),
                    Cell::Hist(h) => Point::Histogram(HistPoint {
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                    }),
                    Cell::Hll(h) => Point::Hll(HllPoint {
                        registers: h.registers(),
                    }),
                };
                series.insert(labels.clone(), point);
            }
            snap.families.insert(
                name.clone(),
                FamilySnap {
                    help: fam.help.clone(),
                    kind: fam.kind,
                    series,
                },
            );
        }
        snap
    }

    /// Folds a snapshot into this registry: counters and histograms add,
    /// gauges add, HLL registers take the element-wise max (set union).
    /// No-op on a disabled handle. Absorbing snapshots in any order
    /// yields the identical merged state.
    pub fn absorb(&self, snap: &Snapshot) {
        let Some(reg) = &self.inner else { return };
        for (name, fam) in &snap.families {
            for (labels, point) in &fam.series {
                let labels_ref: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                let cell = reg.cell(name, &fam.help, fam.kind, &labels_ref);
                match (cell, point) {
                    (Cell::Counter(c), Point::Counter(v)) => {
                        c.fetch_add(*v, Ordering::Relaxed);
                    }
                    (Cell::Gauge(g), Point::Gauge(v)) => {
                        g.fetch_add(*v, Ordering::Relaxed);
                    }
                    (Cell::Hist(h), Point::Histogram(p)) => {
                        for (b, v) in h.buckets.iter().zip(&p.buckets) {
                            b.fetch_add(*v, Ordering::Relaxed);
                        }
                        h.count.fetch_add(p.count, Ordering::Relaxed);
                        h.sum.fetch_add(p.sum, Ordering::Relaxed);
                    }
                    (Cell::Hll(h), Point::Hll(p)) => h.merge_registers(&p.registers),
                    _ => unreachable!("kind checked at registration"),
                }
            }
        }
    }
}

/// Handle to a monotonic counter (no-op when minted from a disabled
/// [`Metrics`]).
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Handle to an instantaneous gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by a signed delta.
    pub fn add(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Raises the level to `v` if it is below it.
    pub fn raise_to(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }
}

/// Handle to a log2 histogram (time- or size-flavored).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistCell>>);

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Whether observing has any effect (lets callers skip computing an
    /// expensive observation, e.g. taking a clock reading, when disabled).
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Records one value (nanoseconds for time histograms, raw units for
    /// size histograms).
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Records an elapsed [`std::time::Duration`] in nanoseconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        if self.0.is_some() {
            self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// Handle to a HyperLogLog distinct-count sketch.
#[derive(Clone, Debug, Default)]
pub struct Hll(Option<Arc<HllCell>>);

impl Hll {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Hll(None)
    }

    /// Whether observing has any effect (lets callers skip hashing when
    /// disabled).
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Observes an item by its precomputed 64-bit hash. The hash must be
    /// uniform (FNV-1a over the item's canonical bytes is what every
    /// caller in the stack uses).
    pub fn observe_hash(&self, h: u64) {
        if let Some(c) = &self.0 {
            c.observe_hash(h);
        }
    }

    /// Observes a byte-string item (FNV-1a hashed).
    pub fn observe_bytes(&self, bytes: &[u8]) {
        if let Some(c) = &self.0 {
            c.observe_bytes(bytes);
        }
    }

    /// Observes a `u64` item (little-endian FNV-1a hashed).
    pub fn observe_u64(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.observe_u64(v);
        }
    }
}

/// Point-in-time copy of one histogram series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistPoint {
    /// Per-bucket observation counts ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (nanoseconds for time histograms).
    pub sum: u64,
}

impl HistPoint {
    /// The sum interpreted as seconds (time histograms record ns).
    pub fn sum_secs(&self) -> f64 {
        self.sum as f64 / 1e9
    }
}

/// Point-in-time copy of one HLL series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HllPoint {
    /// The raw registers ([`HLL_REGISTERS`] entries).
    pub registers: Vec<u8>,
}

impl HllPoint {
    /// The cardinality estimate over the copied registers.
    pub fn estimate(&self) -> f64 {
        hll::estimate(&self.registers)
    }
}

/// One sampled series value.
#[derive(Clone, Debug, PartialEq)]
pub enum Point {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistPoint),
    /// HLL registers.
    Hll(HllPoint),
}

/// Point-in-time copy of one metric family.
#[derive(Clone, Debug, PartialEq)]
pub struct FamilySnap {
    /// The help string supplied at registration.
    pub help: String,
    /// The family's kind.
    pub kind: MetricKind,
    /// Every labeled series, keyed by its sorted-at-registration label
    /// pairs (the empty vec is the unlabeled series).
    pub series: BTreeMap<Vec<(String, String)>, Point>,
}

/// A point-in-time copy of a whole registry. Ordered maps throughout, so
/// equality and rendered output are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Families keyed by metric name.
    pub families: BTreeMap<String, FamilySnap>,
}

impl Snapshot {
    /// Looks up one series' point.
    pub fn point(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Point> {
        let key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.families.get(name)?.series.get(&key)
    }

    /// An unlabeled (or labeled) counter's total, 0 when absent.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.point(name, labels) {
            Some(Point::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A gauge's level, 0 when absent.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        match self.point(name, labels) {
            Some(Point::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// A histogram's state, when present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistPoint> {
        match self.point(name, labels) {
            Some(Point::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// An HLL series' cardinality estimate, 0.0 when absent.
    pub fn hll_estimate(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.point(name, labels) {
            Some(Point::Hll(h)) => h.estimate(),
            _ => 0.0,
        }
    }

    /// Renders the snapshot as a JSON object (hand-rolled, like every
    /// other JSON emitter in the stack): metric name → `{kind, help,
    /// series: [{labels, value|…}]}`.
    pub fn to_json(&self) -> String {
        expose::snapshot_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        let c = m.counter("c_total", "help");
        c.inc();
        c.add(41);
        let g = m.gauge("g", "help");
        g.set(7);
        let h = m.time_histogram("h_seconds", "help");
        assert!(!h.is_live());
        h.observe(123);
        let s = m.hll("s", "help");
        s.observe_u64(9);
        assert_eq!(m.snapshot(), Snapshot::default());
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let m = Metrics::enabled();
        let c = m.counter_with("req_total", "requests", &[("kind", "a")]);
        c.inc();
        c.add(2);
        m.counter_with("req_total", "requests", &[("kind", "b")]).inc();
        let g = m.gauge("depth", "queue depth");
        g.set(5);
        g.add(-2);
        g.raise_to(4);
        let h = m.size_histogram("batch", "batch sizes");
        h.observe(0);
        h.observe(1);
        h.observe(1024);

        let snap = m.snapshot();
        assert_eq!(snap.counter_value("req_total", &[("kind", "a")]), 3);
        assert_eq!(snap.counter_value("req_total", &[("kind", "b")]), 1);
        assert_eq!(snap.gauge_value("depth", &[]), 4);
        let hp = snap.histogram("batch", &[]).unwrap();
        assert_eq!(hp.count, 3);
        assert_eq!(hp.sum, 1025);
        assert_eq!(hp.buckets[bucket_index(0)], 1);
        assert_eq!(hp.buckets[bucket_index(1)], 1);
        assert_eq!(hp.buckets[bucket_index(1024)], 1);
    }

    #[test]
    fn same_name_same_cell() {
        let m = Metrics::enabled();
        let a = m.counter("shared_total", "x");
        let b = m.counter("shared_total", "x");
        a.inc();
        b.inc();
        assert_eq!(m.snapshot().counter_value("shared_total", &[]), 2);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_panics() {
        let m = Metrics::enabled();
        m.counter("twice", "x");
        m.gauge("twice", "x");
    }

    #[test]
    fn absorb_merges_deterministically() {
        let build = |c: u64, hv: u64, hll_lo: u64| {
            let m = Metrics::enabled();
            m.counter("c_total", "c").add(c);
            m.gauge("g", "g").set(c as i64);
            m.size_histogram("h", "h").observe(hv);
            let s = m.hll("s", "s");
            for v in hll_lo..hll_lo + 50 {
                s.observe_u64(v);
            }
            m.snapshot()
        };
        let a = build(3, 2, 0);
        let b = build(5, 9, 25); // overlaps a's items 25..50

        let ab = Metrics::enabled();
        ab.absorb(&a);
        ab.absorb(&b);
        let ba = Metrics::enabled();
        ba.absorb(&b);
        ba.absorb(&a);
        let merged = ab.snapshot();
        assert_eq!(merged, ba.snapshot(), "absorb order must not matter");

        assert_eq!(merged.counter_value("c_total", &[]), 8);
        assert_eq!(merged.gauge_value("g", &[]), 8);
        let h = merged.histogram("h", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 11);
        // Union of 0..50 and 25..75 is 75 distinct items; the sketch's
        // estimate must land near that, not near the sum of the parts.
        let est = merged.hll_estimate("s", &[]);
        assert!((est - 75.0).abs() < 8.0, "union estimate {est} far from 75");
    }

    #[test]
    fn global_respects_env_default_off() {
        // The test harness does not set DP_METRICS for this binary unless
        // the check.sh leg does; either way the global handle is coherent
        // with the env knob.
        let enabled = std::env::var("DP_METRICS")
            .map(|v| !matches!(v.as_str(), "" | "0" | "off"))
            .unwrap_or(false);
        assert_eq!(Metrics::global().is_enabled(), enabled);
    }
}
