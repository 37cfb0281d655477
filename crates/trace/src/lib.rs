//! # dp-trace — the one instrumentation handle of the DiffProv stack
//!
//! A zero-overhead-when-disabled [`Tracer`] shared by the NDlog engine,
//! the provenance recorder, the replay layer and its durable store, the
//! DiffProv pipeline, and the benchmark harness. One handle, one
//! accumulator ([`Aggregate`]), read in-process: the `repro trace
//! <scenario>` summary (`dp-bench`) lists every series it holds, and
//! `Stats` JSON and the benchmark's figures are read off it too.
//!
//! The [`Aggregate`] holds four kinds of series, all keyed by name:
//! time histograms (one per span name), counters, levels (gauges: set or
//! raised), and size histograms (same log2 buckets as the time
//! histograms).
//!
//! ## Names and labels
//!
//! A series name is a dotted family (`engine.join_probes`) optionally
//! followed by one label in braces (`engine.rule_fired{rule=r1}`, built by
//! [`series`], taken apart by [`split_series`]).
//!
//! ## The determinism contract
//!
//! Every series but span wall time is a function of the program and its
//! input log: two runs of the same program on the same log leave equal
//! counters, levels, size histograms and span counts. Wall-clock
//! durations are non-deterministic by nature; they are the only thing
//! two such runs may disagree on. `crates/ndlog/tests/trace_differential.rs`
//! asserts this.
//!
//! ## Overhead
//!
//! A disabled tracer ([`Tracer::disabled`], the default) holds no
//! allocation at all; every operation is a branch on an `Option`. An
//! enabled tracer ([`Tracer::aggregate_only`]) updates the aggregate under
//! one lock and records nothing else. Instrumented code must still keep
//! tracing off per-tuple hot paths — the engine only opens spans at
//! batch/phase granularity and publishes its counters at quiescence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of power-of-two buckets in a [`Hist`].
pub const HIST_BUCKETS: usize = 40;

/// A log2 histogram with count, sum and extremes: nanoseconds for the
/// per-span timing in [`Aggregate::spans`], raw units (batch depths, tree
/// sizes) for [`Aggregate::sizes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Sum of the observed values.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Bucket `i` counts values in `[2^(i-1), 2^i)` (bucket 0 is `[0, 1)`).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// The histogram bucket a value falls into.
    pub fn bucket_index(v: u64) -> usize {
        ((64 - u64::leading_zeros(v)) as usize).min(HIST_BUCKETS - 1)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Builds the name of a labeled series: `family{label=value}`.
pub fn series(family: &str, label: &str, value: impl std::fmt::Display) -> String {
    format!("{family}{{{label}={value}}}")
}

/// Splits a series name into its family and its label pair, if any.
pub fn split_series(name: &str) -> (&str, Option<(&str, &str)>) {
    name.strip_suffix('}')
        .and_then(|n| n.split_once('{'))
        .and_then(|(family, label)| Some((family, Some(label.split_once('=')?))))
        .unwrap_or((name, None))
}

/// The one accumulator: every series the stack reports, keyed by name.
/// Snapshots are cheap clones; the bench harness derives its figures by
/// differencing two snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Wall time per span name, nanoseconds.
    pub spans: BTreeMap<String, Hist>,
    /// Counter totals (accumulated across [`Tracer::counter`] calls).
    pub counters: BTreeMap<String, u64>,
    /// Levels: the last value set, or the highest value raised to.
    pub levels: BTreeMap<String, u64>,
    /// Size histograms (dimensionless observations).
    pub sizes: BTreeMap<String, Hist>,
}

impl Aggregate {
    /// Total nanoseconds spent in spans of `name` (0 if never seen).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.sum)
    }

    /// Completion count for spans of `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.count)
    }

    /// Current total of counter `name` (0 if never seen).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current reading of level `name` (0 if never seen).
    pub fn level(&self, name: &str) -> u64 {
        self.levels.get(name).copied().unwrap_or(0)
    }

    /// Adds `value` to counter `name`.
    pub fn add(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    /// Sets level `name` to `value`.
    pub fn set_level(&mut self, name: &str, value: u64) {
        self.levels.insert(name.to_string(), value);
    }

    /// Raises level `name` to `value` if it is below it.
    pub fn raise_level(&mut self, name: &str, value: u64) {
        let level = self.levels.entry(name.to_string()).or_insert(0);
        *level = (*level).max(value);
    }

    /// Records one observation in size histogram `name`.
    pub fn observe_size(&mut self, name: &str, value: u64) {
        self.sizes.entry(name.to_string()).or_default().observe(value);
    }
}

/// Handle to an aggregate. Cloning shares it, so one tracer can be
/// threaded through an engine, its provenance sink, and the DiffProv
/// pipeline to accumulate their series in one place.
///
/// The default value is **disabled** and costs nothing.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    agg: Option<Arc<Mutex<Aggregate>>>,
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op.
    pub fn disabled() -> Self {
        Tracer { agg: None }
    }

    /// An enabled tracer: every operation updates the [`Aggregate`].
    pub fn aggregate_only() -> Self {
        Tracer {
            agg: Some(Arc::default()),
        }
    }

    /// Whether the aggregate is being updated.
    pub fn is_enabled(&self) -> bool {
        self.agg.is_some()
    }

    /// Opens a span. The returned guard adds its wall time to the span
    /// name's histogram when it is closed by [`Span::end`] or dropped.
    pub fn span(&self, name: &str) -> Span {
        let live = self.agg.as_ref().map(|agg| SpanLive {
            agg: Arc::clone(agg),
            name: name.to_string(),
            start: Instant::now(),
        });
        Span { live }
    }

    /// Adds `value` to counter `name`.
    pub fn counter(&self, name: &str, value: u64) {
        self.update(|agg| agg.add(name, value));
    }

    /// Sets level `name` to `value`. Levels are absolute readings: several
    /// runs sharing one tracer overwrite each other instead of adding up.
    pub fn level(&self, name: &str, value: u64) {
        self.update(|agg| agg.set_level(name, value));
    }

    /// Raises level `name` to `value` if it is below it — a high-water
    /// mark across every run sharing the tracer.
    pub fn level_max(&self, name: &str, value: u64) {
        self.update(|agg| agg.raise_level(name, value));
    }

    /// Applies `f` to the aggregate under one lock hold (several updates,
    /// or size observations).
    pub fn update(&self, f: impl FnOnce(&mut Aggregate)) {
        if let Some(agg) = &self.agg {
            f(&mut agg.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// A snapshot of the current aggregate (empty when disabled).
    pub fn aggregate(&self) -> Aggregate {
        match &self.agg {
            None => Aggregate::default(),
            Some(agg) => agg.lock().unwrap_or_else(PoisonError::into_inner).clone(),
        }
    }
}

struct SpanLive {
    agg: Arc<Mutex<Aggregate>>,
    name: String,
    start: Instant,
}

/// Guard for an open span: closing it, explicitly or by drop, adds its
/// wall time to the aggregate.
#[must_use = "dropping a span immediately records a zero-length interval"]
pub struct Span {
    live: Option<SpanLive>,
}

impl Span {
    /// Closes the span.
    pub fn end(mut self) {
        self.close(|_| {});
    }

    /// [`Span::end`], then `f` on the aggregate under the same lock hold:
    /// per-span size observations and levels ride the close instead of
    /// taking the lock again.
    pub fn end_with(mut self, f: impl FnOnce(&mut Aggregate)) {
        self.close(f);
    }

    fn close(&mut self, f: impl FnOnce(&mut Aggregate)) {
        let Some(live) = self.live.take() else { return };
        // u64 nanoseconds cover ~584 years of span.
        let dur = live.start.elapsed().as_nanos() as u64;
        // Closing runs in `Drop`, where a panic during unwinding would
        // abort: a span on a poisoned aggregate records nothing.
        let Ok(mut agg) = live.agg.lock() else { return };
        agg.spans.entry(live.name).or_default().observe(dur);
        f(&mut agg);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(|_| {});
    }
}

/// Renders `s` as a JSON string literal (quotes included), escaping per
/// RFC 8259. Shared by the hand-rolled JSON writers of the workspace.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let span = t.span("x");
        t.counter("c", 5);
        t.level("l", 1);
        span.end();
        assert_eq!(t.aggregate(), Aggregate::default());
    }

    #[test]
    fn aggregate_only_buffers_nothing_but_counts() {
        let t = Tracer::aggregate_only();
        assert!(t.is_enabled());
        t.span("engine.run").end();
        t.counter("derivations", 7);
        t.counter("derivations", 3);
        let agg = t.aggregate();
        assert_eq!(agg.span_count("engine.run"), 1);
        assert_eq!(agg.counter("derivations"), 10);
    }

    #[test]
    fn drop_closes_span_and_feeds_aggregate() {
        let t = Tracer::aggregate_only();
        {
            let _s = t.span("scoped");
        }
        assert_eq!(t.aggregate().span_count("scoped"), 1);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn histogram_buckets_cover_durations() {
        assert_eq!(Hist::bucket_index(0), 0);
        assert_eq!(Hist::bucket_index(1), 1);
        assert_eq!(Hist::bucket_index(2), 2);
        assert_eq!(Hist::bucket_index(3), 2);
        assert_eq!(Hist::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let mut st = Hist::default();
        st.observe(100);
        st.observe(200);
        assert_eq!(st.count, 2);
        assert_eq!(st.sum, 300);
        assert_eq!(st.min, 100);
        assert_eq!(st.max, 200);
        assert_eq!(st.mean(), 150);
        assert_eq!(st.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn clones_share_one_aggregate() {
        let t = Tracer::aggregate_only();
        let t2 = t.clone();
        t.counter("from.a", 1);
        t2.counter("from.b", 2);
        t2.span("from.b").end();
        assert_eq!(t.aggregate(), t2.aggregate());
        assert_eq!(t.aggregate().counter("from.b"), 2);
        assert_eq!(t.aggregate().span_count("from.b"), 1);
    }

    #[test]
    fn levels_are_set_or_raised_never_summed() {
        let t = Tracer::aggregate_only();
        t.level("node.live", 5);
        t.level("node.live", 3);
        t.level_max("peak", 9);
        t.level_max("peak", 4);
        let agg = t.aggregate();
        assert_eq!(agg.level("node.live"), 3);
        assert_eq!(agg.level("peak"), 9);
        assert_eq!(agg.level("never"), 0);
    }

    #[test]
    fn span_close_carries_aggregate_updates() {
        let t = Tracer::aggregate_only();
        t.span("flush").end_with(|a| {
            a.observe_size("flush.deltas", 6);
            a.set_level("queue", 2);
        });
        t.update(|a| a.observe_size("flush.deltas", 4));
        let agg = t.aggregate();
        assert_eq!(agg.span_count("flush"), 1);
        assert_eq!(agg.sizes["flush.deltas"].sum, 10);
        assert_eq!(agg.level("queue"), 2);
        // A disabled tracer runs neither closure.
        let off = Tracer::disabled();
        off.span("flush").end_with(|_| unreachable!());
        off.update(|_| unreachable!());
    }

    #[test]
    fn series_names_split_back_into_family_and_label() {
        let name = series("engine.rule_fired", "rule", "r1");
        assert_eq!(name, "engine.rule_fired{rule=r1}");
        assert_eq!(split_series(&name), ("engine.rule_fired", Some(("rule", "r1"))));
        assert_eq!(split_series("engine.events"), ("engine.events", None));
        // A value may hold anything, braces and equals signs included.
        assert_eq!(split_series("a.b{k=x{=}y}"), ("a.b", Some(("k", "x{=}y"))));
    }
}
