//! # dp-trace — the one instrumentation handle of the DiffProv stack
//!
//! A zero-overhead-when-disabled [`Tracer`] shared by the NDlog engine,
//! the provenance recorder, the replay layer and its durable store, the
//! DiffProv pipeline, and the benchmark harness. One handle, one
//! accumulator ([`Aggregate`]), read in-process; three renderings:
//!
//! * a JSONL event stream ([`Trace::to_jsonl`]);
//! * a Chrome `trace_event` export loadable in Perfetto / `chrome://tracing`
//!   ([`Trace::to_chrome`]);
//! * the `repro trace <scenario>` summary (`dp-bench`), whose tail lists
//!   every counter, level and size histogram the aggregate holds.
//!
//! The [`Aggregate`] holds four kinds of series, all keyed by name:
//! time histograms (one per span name), counters, levels (gauges: set or
//! raised), and size histograms (same log2 buckets as the time
//! histograms). The bench crate derives its numbers from it, so BENCH
//! output, traces and the summary read one set of values.
//!
//! ## Names and labels
//!
//! A series name is a dotted family (`engine.join_probes`) optionally
//! followed by one label in braces (`engine.rule_fired{rule=r1}`, built by
//! [`series`], taken apart by [`split_series`]).
//!
//! ## The determinism contract
//!
//! Every event carries a [`Class`]:
//!
//! * [`Class::Skeleton`] events are **deterministic**: their names, logical
//!   timestamps, and argument values depend only on the program and its
//!   input log — not on how the engine batches or which access path a
//!   join takes. The rendering produced by [`Trace::skeleton`] is
//!   reproducible bit for bit; the differential suites assert this.
//! * [`Class::Effort`] events describe *how much work the engine did*
//!   (batch flushes, probe/scan counts). They would move with any change
//!   to its batching or access paths and are excluded from the skeleton.
//!
//! Wall-clock durations are non-deterministic by nature and are therefore
//! carried outside the skeleton on **every** event class.
//!
//! ## Overhead
//!
//! A disabled tracer ([`Tracer::disabled`], the default) holds no
//! allocation at all; every operation is a branch on an `Option`. An
//! aggregate-only tracer ([`Tracer::aggregate_only`]) updates the
//! aggregate but buffers no events. A full tracer ([`Tracer::full`])
//! records the event stream as well. Instrumented code must still keep
//! tracing off per-tuple hot paths — the engine only emits spans at
//! batch/phase granularity and publishes its counters at quiescence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dp_types::{LogicalTime, SpanId, TraceId};

/// Determinism class of a trace event. See the crate docs for the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Deterministic: a function of the program and its input; part of
    /// the diffable skeleton.
    Skeleton,
    /// Effort the engine spent (batching, probes, scans); excluded from
    /// the skeleton.
    Effort,
}

impl Class {
    /// Lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            Class::Skeleton => "skeleton",
            Class::Effort => "effort",
        }
    }
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span opened.
    SpanBegin {
        /// Span identity (sequential within the trace).
        id: SpanId,
        /// Span name (dot-separated taxonomy, e.g. `engine.run`).
        name: String,
        /// Determinism class.
        class: Class,
        /// Logical clock at open, when the caller has one.
        lt: Option<LogicalTime>,
        /// Wall-clock nanoseconds since the tracer epoch (non-deterministic).
        wall_ns: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Span identity matching the corresponding [`TraceEvent::SpanBegin`].
        id: SpanId,
        /// Span name.
        name: String,
        /// Determinism class.
        class: Class,
        /// Logical clock at close, when the caller has one.
        lt: Option<LogicalTime>,
        /// Deterministic (for skeleton spans) key/value payload.
        args: Vec<(&'static str, u64)>,
        /// Wall-clock nanoseconds since the tracer epoch (non-deterministic).
        wall_ns: u64,
    },
    /// A point-in-time event.
    Instant {
        /// Event name.
        name: String,
        /// Determinism class.
        class: Class,
        /// Logical clock, when the caller has one.
        lt: Option<LogicalTime>,
        /// Key/value payload.
        args: Vec<(&'static str, u64)>,
        /// Wall-clock nanoseconds since the tracer epoch (non-deterministic).
        wall_ns: u64,
    },
    /// A counter increment (also accumulated into the [`Aggregate`]).
    Counter {
        /// Counter name.
        name: String,
        /// Determinism class.
        class: Class,
        /// Amount added to the counter.
        value: u64,
        /// Wall-clock nanoseconds since the tracer epoch (non-deterministic).
        wall_ns: u64,
    },
    /// A level (gauge) reading: the aggregate keeps the value itself, or
    /// the maximum seen, rather than a running sum.
    Level {
        /// Level name.
        name: String,
        /// Determinism class.
        class: Class,
        /// The reading.
        value: u64,
        /// Wall-clock nanoseconds since the tracer epoch (non-deterministic).
        wall_ns: u64,
    },
}

impl TraceEvent {
    /// The event's determinism class.
    pub fn class(&self) -> Class {
        match self {
            TraceEvent::SpanBegin { class, .. }
            | TraceEvent::SpanEnd { class, .. }
            | TraceEvent::Instant { class, .. }
            | TraceEvent::Counter { class, .. }
            | TraceEvent::Level { class, .. } => *class,
        }
    }

    /// The event's name.
    pub fn name(&self) -> &str {
        match self {
            TraceEvent::SpanBegin { name, .. }
            | TraceEvent::SpanEnd { name, .. }
            | TraceEvent::Instant { name, .. }
            | TraceEvent::Counter { name, .. }
            | TraceEvent::Level { name, .. } => name,
        }
    }
}

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

#[derive(Debug)]
struct Inner {
    id: TraceId,
    epoch: Instant,
    record: bool,
    next_span: u64,
    events: Vec<TraceEvent>,
    agg: Aggregate,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of tracer lifetime.
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Handle to a trace. Cloning shares the underlying buffer, so one tracer
/// can be threaded through an engine, its provenance sink, and the
/// DiffProv pipeline to interleave their events in a single stream.
///
/// The default value is **disabled** and costs nothing.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
    // Mirrors `Inner::record` so instants (which carry no duration and so
    // contribute nothing to the aggregate) can skip the lock entirely in
    // aggregate-only mode. Never changes after construction.
    record: bool,
}

impl Tracer {
    fn with_mode(record: bool) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Inner {
                id: TraceId::next(),
                epoch: Instant::now(),
                record,
                next_span: 1,
                events: Vec::new(),
                agg: Aggregate::default(),
            }))),
            record,
        }
    }

    /// A disabled tracer: every operation is a no-op.
    pub fn disabled() -> Self {
        Tracer {
            inner: None,
            record: false,
        }
    }

    /// An enabled tracer that updates the [`Aggregate`] but buffers no
    /// events — what the bench harness uses for timing.
    pub fn aggregate_only() -> Self {
        Self::with_mode(false)
    }

    /// A fully recording tracer: aggregate plus the complete event stream.
    pub fn full() -> Self {
        Self::with_mode(true)
    }

    /// Whether any recording or aggregation is active.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This trace's id, if enabled.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner
            .as_ref()
            .map(|i| i.lock().expect("tracer poisoned").id)
    }

    /// Opens a span. The returned guard records the close either through
    /// [`Span::end`] (with a logical clock and argument payload) or on
    /// drop (with neither).
    pub fn span(&self, name: &str, class: Class, lt: Option<LogicalTime>) -> Span {
        let Some(inner) = &self.inner else {
            return Span { live: None };
        };
        let mut g = inner.lock().expect("tracer poisoned");
        let id = SpanId::from_u64(g.next_span);
        g.next_span += 1;
        let wall_ns = g.now_ns();
        if g.record {
            g.events.push(TraceEvent::SpanBegin {
                id,
                name: name.to_string(),
                class,
                lt,
                wall_ns,
            });
        }
        drop(g);
        Span {
            live: Some(SpanLive {
                inner: Arc::clone(inner),
                id,
                name: name.to_string(),
                class,
                start_ns: wall_ns,
            }),
        }
    }

    /// Records a point-in-time event.
    pub fn instant(
        &self,
        name: &str,
        class: Class,
        lt: Option<LogicalTime>,
        args: &[(&'static str, u64)],
    ) {
        if !self.record {
            return;
        }
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer poisoned");
        let wall_ns = g.now_ns();
        if g.record {
            g.events.push(TraceEvent::Instant {
                name: name.to_string(),
                class,
                lt,
                args: args.to_vec(),
                wall_ns,
            });
        }
    }

    /// Adds `value` to counter `name` in the aggregate (and records a
    /// counter event when fully recording).
    pub fn counter(&self, name: &str, class: Class, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer poisoned");
        let wall_ns = g.now_ns();
        g.agg.add(name, value);
        if g.record {
            g.events.push(TraceEvent::Counter {
                name: name.to_string(),
                class,
                value,
                wall_ns,
            });
        }
    }

    /// Sets level `name` to `value` (and records a level event when fully
    /// recording). Levels are absolute readings: several runs sharing one
    /// tracer overwrite each other instead of adding up.
    pub fn level(&self, name: &str, class: Class, value: u64) {
        self.level_event(name, class, value, Aggregate::set_level);
    }

    /// Raises level `name` to `value` if it is below it — a high-water
    /// mark across every run sharing the tracer.
    pub fn level_max(&self, name: &str, class: Class, value: u64) {
        self.level_event(name, class, value, Aggregate::raise_level);
    }

    fn level_event(&self, name: &str, class: Class, value: u64, apply: fn(&mut Aggregate, &str, u64)) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("tracer poisoned");
        let wall_ns = g.now_ns();
        apply(&mut g.agg, name, value);
        if g.record {
            g.events.push(TraceEvent::Level {
                name: name.to_string(),
                class,
                value,
                wall_ns,
            });
        }
    }

    /// Applies `f` to the aggregate under one lock hold — for updates that
    /// have no place in the event stream (size observations).
    pub fn update(&self, f: impl FnOnce(&mut Aggregate)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().expect("tracer poisoned").agg);
        }
    }

    /// A snapshot of the current aggregate (empty when disabled).
    pub fn aggregate(&self) -> Aggregate {
        match &self.inner {
            None => Aggregate::default(),
            Some(inner) => inner.lock().expect("tracer poisoned").agg.clone(),
        }
    }

    /// Drains the buffered event stream into a [`Trace`] (with a clone of
    /// the aggregate). The tracer stays usable; subsequent events start a
    /// fresh buffer while the aggregate keeps accumulating.
    pub fn finish(&self) -> Trace {
        match &self.inner {
            None => Trace {
                trace_id: None,
                events: Vec::new(),
                aggregate: Aggregate::default(),
            },
            Some(inner) => {
                let mut g = inner.lock().expect("tracer poisoned");
                Trace {
                    trace_id: Some(g.id),
                    events: std::mem::take(&mut g.events),
                    aggregate: g.agg.clone(),
                }
            }
        }
    }
}

struct SpanLive {
    inner: Arc<Mutex<Inner>>,
    id: SpanId,
    name: String,
    class: Class,
    start_ns: u64,
}

/// Guard for an open span. Close it explicitly with [`Span::end`] to attach
/// a logical clock and arguments; dropping it closes with neither.
#[must_use = "dropping a span immediately records a zero-length interval"]
pub struct Span {
    live: Option<SpanLive>,
}

impl Span {
    /// Closes the span, tagging the end event with a logical clock and a
    /// deterministic argument payload.
    pub fn end(mut self, lt: Option<LogicalTime>, args: &[(&'static str, u64)]) {
        self.close(lt, args, |_| {});
    }

    /// [`Span::end`], then `f` on the aggregate under the same lock hold:
    /// per-span size observations and levels ride the close instead of
    /// taking the lock again.
    pub fn end_with(
        mut self,
        lt: Option<LogicalTime>,
        args: &[(&'static str, u64)],
        f: impl FnOnce(&mut Aggregate),
    ) {
        self.close(lt, args, f);
    }

    fn close(
        &mut self,
        lt: Option<LogicalTime>,
        args: &[(&'static str, u64)],
        f: impl FnOnce(&mut Aggregate),
    ) {
        let Some(live) = self.live.take() else { return };
        let mut g = live.inner.lock().expect("tracer poisoned");
        let wall_ns = g.now_ns();
        let dur = wall_ns.saturating_sub(live.start_ns);
        g.agg.spans.entry(live.name.clone()).or_default().observe(dur);
        f(&mut g.agg);
        if g.record {
            g.events.push(TraceEvent::SpanEnd {
                id: live.id,
                name: live.name,
                class: live.class,
                lt,
                args: args.to_vec(),
                wall_ns,
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(None, &[], |_| {});
    }
}

/// A finished (or drained) trace: the event stream plus the aggregate at
/// drain time.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Identity of the originating tracer (None if it was disabled).
    pub trace_id: Option<TraceId>,
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Aggregate snapshot taken when the trace was drained.
    pub aggregate: Aggregate,
}

impl Trace {
    /// Renders the deterministic event skeleton: every [`Class::Skeleton`]
    /// event's kind, name, logical clock, and arguments — and nothing
    /// non-deterministic (no wall times, no span/trace ids, no effort
    /// events). Two runs of the same program on the same log produce
    /// bit-identical skeletons.
    pub fn skeleton(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            if ev.class() != Class::Skeleton {
                continue;
            }
            match ev {
                TraceEvent::SpanBegin { name, lt, .. } => {
                    let _ = write!(out, "B {name}");
                    push_lt(&mut out, *lt);
                }
                TraceEvent::SpanEnd { name, lt, args, .. } => {
                    let _ = write!(out, "E {name}");
                    push_lt(&mut out, *lt);
                    push_args(&mut out, args);
                }
                TraceEvent::Instant { name, lt, args, .. } => {
                    let _ = write!(out, "I {name}");
                    push_lt(&mut out, *lt);
                    push_args(&mut out, args);
                }
                TraceEvent::Counter { name, value, .. } => {
                    let _ = write!(out, "C {name} +{value}");
                }
                TraceEvent::Level { name, value, .. } => {
                    let _ = write!(out, "L {name} ={value}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Full-fidelity JSONL: one JSON object per event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            match ev {
                TraceEvent::SpanBegin { id, name, class, lt, wall_ns } => {
                    let _ = write!(
                        out,
                        "{{\"ev\":\"B\",\"span\":{},\"name\":{},\"class\":\"{}\"",
                        id.as_u64(),
                        json_string(name),
                        class.label()
                    );
                    jsonl_tail(&mut out, *lt, &[], *wall_ns);
                }
                TraceEvent::SpanEnd { id, name, class, lt, args, wall_ns } => {
                    let _ = write!(
                        out,
                        "{{\"ev\":\"E\",\"span\":{},\"name\":{},\"class\":\"{}\"",
                        id.as_u64(),
                        json_string(name),
                        class.label()
                    );
                    jsonl_tail(&mut out, *lt, args, *wall_ns);
                }
                TraceEvent::Instant { name, class, lt, args, wall_ns } => {
                    let _ = write!(
                        out,
                        "{{\"ev\":\"I\",\"name\":{},\"class\":\"{}\"",
                        json_string(name),
                        class.label()
                    );
                    jsonl_tail(&mut out, *lt, args, *wall_ns);
                }
                TraceEvent::Counter { name, class, value, wall_ns }
                | TraceEvent::Level { name, class, value, wall_ns } => {
                    let tag = if matches!(ev, TraceEvent::Level { .. }) { 'L' } else { 'C' };
                    let _ = write!(
                        out,
                        "{{\"ev\":\"{tag}\",\"name\":{},\"class\":\"{}\",\"value\":{}",
                        json_string(name),
                        class.label(),
                        value
                    );
                    jsonl_tail(&mut out, None, &[], *wall_ns);
                }
            }
        }
        out
    }

    /// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object
    /// format), loadable in Perfetto or `chrome://tracing`. All events are
    /// placed on pid 1 / tid 1 — spans are only emitted from serial code,
    /// so they nest correctly on a single track. Timestamps are
    /// microseconds since the tracer epoch; the logical clock and class
    /// ride along in `args`.
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match ev {
                TraceEvent::SpanBegin { name, class, lt, wall_ns, .. } => {
                    chrome_event(&mut out, "B", name, class.label(), *lt, &[], *wall_ns, None);
                }
                TraceEvent::SpanEnd { name, class, lt, args, wall_ns, .. } => {
                    chrome_event(&mut out, "E", name, class.label(), *lt, args, *wall_ns, None);
                }
                TraceEvent::Instant { name, class, lt, args, wall_ns } => {
                    chrome_event(&mut out, "i", name, class.label(), *lt, args, *wall_ns, None);
                }
                // A Chrome counter track plots the values it is given, so
                // increments and level readings share the `C` phase.
                TraceEvent::Counter { name, class, value, wall_ns }
                | TraceEvent::Level { name, class, value, wall_ns } => {
                    chrome_event(
                        &mut out,
                        "C",
                        name,
                        class.label(),
                        None,
                        &[],
                        *wall_ns,
                        Some(*value),
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

fn push_lt(out: &mut String, lt: Option<LogicalTime>) {
    match lt {
        Some(t) => {
            let _ = write!(out, " lt={t}");
        }
        None => out.push_str(" lt=-"),
    }
}

fn push_args(out: &mut String, args: &[(&'static str, u64)]) {
    for (k, v) in args {
        let _ = write!(out, " {k}={v}");
    }
}

fn jsonl_tail(out: &mut String, lt: Option<LogicalTime>, args: &[(&'static str, u64)], wall_ns: u64) {
    if let Some(t) = lt {
        let _ = write!(out, ",\"lt\":{t}");
    }
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push('}');
    }
    let _ = write!(out, ",\"wall_ns\":{wall_ns}}}");
    out.push('\n');
}

#[allow(clippy::too_many_arguments)]
fn chrome_event(
    out: &mut String,
    ph: &str,
    name: &str,
    cat: &str,
    lt: Option<LogicalTime>,
    args: &[(&'static str, u64)],
    wall_ns: u64,
    counter_value: Option<u64>,
) {
    let ts_us = wall_ns as f64 / 1e3;
    let _ = write!(
        out,
        "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts_us},\"pid\":1,\"tid\":1",
        json_string(name)
    );
    if ph == "i" {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    if let Some(v) = counter_value {
        let _ = write!(out, "\"value\":{v}");
        first = false;
    }
    if let Some(t) = lt {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "\"lt\":{t}");
        first = false;
    }
    for (k, v) in args {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
        first = false;
    }
    out.push_str("}}");
}

/// Renders `s` as a JSON string literal (quotes included), escaping per
/// RFC 8259. Shared by the trace exporters and the hand-rolled JSON
/// writers elsewhere in the workspace.
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
        assert!(t.trace_id().is_none());
        let span = t.span("x", Class::Skeleton, Some(1));
        t.instant("y", Class::Effort, None, &[("k", 1)]);
        t.counter("c", Class::Skeleton, 5);
        span.end(Some(2), &[("n", 3)]);
        let trace = t.finish();
        assert!(trace.events.is_empty());
        assert_eq!(trace.aggregate, Aggregate::default());
        assert_eq!(trace.skeleton(), "");
    }

    #[test]
    fn aggregate_only_buffers_nothing_but_counts() {
        let t = Tracer::aggregate_only();
        assert!(t.is_enabled());
        let s = t.span("engine.run", Class::Skeleton, Some(0));
        s.end(Some(9), &[]);
        t.counter("derivations", Class::Skeleton, 7);
        t.counter("derivations", Class::Skeleton, 3);
        let trace = t.finish();
        assert!(trace.events.is_empty());
        assert_eq!(trace.aggregate.span_count("engine.run"), 1);
        assert_eq!(trace.aggregate.counter("derivations"), 10);
    }

    #[test]
    fn skeleton_excludes_effort_and_wall_time() {
        let t = Tracer::full();
        let s = t.span("engine.run", Class::Skeleton, Some(0));
        let e = t.span("engine.flush", Class::Effort, Some(3));
        t.instant("engine.tick", Class::Skeleton, Some(4), &[("due", 4)]);
        e.end(Some(4), &[("deltas", 2)]);
        t.counter("engine.events", Class::Skeleton, 12);
        s.end(Some(9), &[("events", 12)]);
        let trace = t.finish();
        let sk = trace.skeleton();
        assert_eq!(
            sk,
            "B engine.run lt=0\nI engine.tick lt=4 due=4\nC engine.events +12\nE engine.run lt=9 events=12\n"
        );
        assert!(!sk.contains("flush"));
        // Effort spans still feed the aggregate.
        assert_eq!(trace.aggregate.span_count("engine.flush"), 1);
    }

    #[test]
    fn skeleton_is_identical_across_tracers_with_different_timing() {
        let render = || {
            let t = Tracer::full();
            let s = t.span("a", Class::Skeleton, Some(1));
            std::thread::sleep(std::time::Duration::from_millis(2));
            s.end(Some(2), &[("k", 9)]);
            t.finish()
        };
        let (t1, t2) = (render(), render());
        assert_eq!(t1.skeleton(), t2.skeleton());
        // The raw streams differ in wall time.
        assert_ne!(t1.events, t2.events);
    }

    #[test]
    fn drop_closes_span_and_feeds_aggregate() {
        let t = Tracer::full();
        {
            let _s = t.span("scoped", Class::Effort, None);
        }
        let trace = t.finish();
        assert_eq!(trace.aggregate.span_count("scoped"), 1);
        assert!(matches!(trace.events[1], TraceEvent::SpanEnd { ref name, .. } if name == "scoped"));
    }

    #[test]
    fn chrome_export_shape() {
        let t = Tracer::full();
        let s = t.span("engine.run", Class::Skeleton, Some(0));
        t.counter("probes", Class::Effort, 4);
        s.end(Some(5), &[("events", 1)]);
        let j = t.finish().to_chrome();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.ends_with("]}"));
        assert!(j.contains("\"ph\":\"B\""));
        assert!(j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"ph\":\"C\""));
        assert!(j.contains("\"cat\":\"skeleton\""));
        assert!(j.contains("\"pid\":1"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let t = Tracer::full();
        let s = t.span("a", Class::Skeleton, None);
        t.instant("i", Class::Skeleton, Some(3), &[("x", 1), ("y", 2)]);
        s.end(None, &[]);
        let trace = t.finish();
        let jl = trace.to_jsonl();
        assert_eq!(jl.lines().count(), trace.events.len());
        assert!(jl.contains("\"args\":{\"x\":1,\"y\":2}"));
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
    fn shared_clone_interleaves_into_one_stream() {
        let t = Tracer::full();
        let t2 = t.clone();
        t.instant("from.a", Class::Skeleton, None, &[]);
        t2.instant("from.b", Class::Skeleton, None, &[]);
        let trace = t.finish();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].name(), "from.a");
        assert_eq!(trace.events[1].name(), "from.b");
        // Finishing drained the shared buffer.
        assert!(t2.finish().events.is_empty());
    }

    #[test]
    fn levels_are_set_or_raised_never_summed() {
        let t = Tracer::full();
        t.level("node.live", Class::Skeleton, 5);
        t.level("node.live", Class::Skeleton, 3);
        t.level_max("peak", Class::Effort, 9);
        t.level_max("peak", Class::Effort, 4);
        let trace = t.finish();
        assert_eq!(trace.aggregate.level("node.live"), 3);
        assert_eq!(trace.aggregate.level("peak"), 9);
        assert_eq!(trace.aggregate.level("never"), 0);
        assert_eq!(trace.skeleton(), "L node.live =5\nL node.live =3\n");
        assert_eq!(trace.to_jsonl().matches("\"ev\":\"L\"").count(), 4);
    }

    #[test]
    fn span_close_carries_aggregate_updates() {
        let t = Tracer::aggregate_only();
        t.span("flush", Class::Effort, None).end_with(None, &[], |a| {
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
        off.span("flush", Class::Effort, None)
            .end_with(None, &[], |_| unreachable!());
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
