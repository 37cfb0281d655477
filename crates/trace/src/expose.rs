//! Exposition: two more renderings of an [`Aggregate`] — Prometheus text
//! format 0.0.4 and its JSON twin.
//!
//! Both walk a snapshot ([`crate::Tracer::aggregate`]), never the live
//! tracer, so a scrape is one brief lock hold (the clone) followed by pure
//! formatting. Families come out in exposition-name order —
//! deterministic for a given aggregate.
//!
//! **The naming rule** ([`exposition_name`]): `dp_` + the series family
//! with dots turned into underscores + the kind's suffix — `_total` for
//! counters, `_seconds` for span time histograms, nothing for levels,
//! size histograms and sketches. A `{label=value}` suffix on the series
//! name becomes the Prometheus label. So `engine.join_probes` is
//! `dp_engine_join_probes_total`, the `engine.run` span is
//! `dp_engine_run_seconds`, and `engine.rule_fired{rule=r1}` is
//! `dp_engine_rule_fired_total{rule="r1"}`. The `# HELP` line carries the
//! family name the series has inside the process.
//!
//! Histograms render in the Prometheus cumulative-bucket convention:
//! bucket `i` of the log2 layout covers values in `[2^(i-1), 2^i)`, so
//! its inclusive upper bound is `2^i - 1` — nanoseconds for time
//! histograms (exposed as seconds, per Prometheus convention) and raw
//! units for size histograms. HLL sketches expose their cardinality
//! estimate as a gauge.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{json_string, split_series, Aggregate, Hist, HllCell, HIST_BUCKETS};

/// The five kinds of series an [`Aggregate`] holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall time per span name ([`Aggregate::spans`]).
    Time,
    /// Monotone totals ([`Aggregate::counters`]).
    Counter,
    /// Set or raised readings ([`Aggregate::levels`]).
    Level,
    /// Dimensionless log2 histograms ([`Aggregate::sizes`]).
    Size,
    /// HyperLogLog sketches ([`Aggregate::sketches`]).
    Sketch,
}

impl Kind {
    /// `(JSON tag, Prometheus type, exposition-name suffix)`.
    fn tags(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Kind::Time => ("time_histogram", "histogram", "_seconds"),
            Kind::Counter => ("counter", "counter", "_total"),
            Kind::Level => ("gauge", "gauge", ""),
            Kind::Size => ("size_histogram", "histogram", ""),
            Kind::Sketch => ("hll", "gauge", ""),
        }
    }
}

/// The exposition family name of series family `family` of kind `kind` —
/// the one naming rule (see the module docs).
pub fn exposition_name(family: &str, kind: Kind) -> String {
    format!("dp_{}{}", family.replace('.', "_"), kind.tags().2)
}

/// One series' value, borrowed from the aggregate.
enum Point<'a> {
    Value(u64),
    Hist(&'a Hist),
    Sketch(&'a HllCell),
}

/// One exposition family: the in-process family name, the kind, and the
/// series (label pair, value) in series-name order.
struct Family<'a> {
    help: &'a str,
    kind: Kind,
    series: Vec<(Option<(&'a str, &'a str)>, Point<'a>)>,
}

/// Groups an aggregate's series into exposition families, keyed (and so
/// ordered) by exposition name.
fn families(agg: &Aggregate) -> BTreeMap<String, Family<'_>> {
    fn insert<'a>(
        out: &mut BTreeMap<String, Family<'a>>,
        name: &'a str,
        kind: Kind,
        point: Point<'a>,
    ) {
        let (family, label) = split_series(name);
        out.entry(exposition_name(family, kind))
            .or_insert_with(|| Family {
                help: family,
                kind,
                series: Vec::new(),
            })
            .series
            .push((label, point));
    }
    let mut out = BTreeMap::new();
    for (name, h) in &agg.spans {
        insert(&mut out, name, Kind::Time, Point::Hist(h));
    }
    for (name, v) in &agg.counters {
        insert(&mut out, name, Kind::Counter, Point::Value(*v));
    }
    for (name, v) in &agg.levels {
        insert(&mut out, name, Kind::Level, Point::Value(*v));
    }
    for (name, h) in &agg.sizes {
        insert(&mut out, name, Kind::Size, Point::Hist(h));
    }
    for (name, s) in &agg.sketches {
        insert(&mut out, name, Kind::Sketch, Point::Sketch(s));
    }
    out
}

/// Escapes a label value (backslash, double quote, newline).
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders `{k="v",…}` for a series label, with an extra trailing pair
/// when `extra` is given (used for `le`). No label and no extra render as
/// the empty string.
fn label_block(label: Option<(&str, &str)>, extra: Option<(&str, &str)>) -> String {
    let pairs: Vec<String> = label
        .into_iter()
        .chain(extra)
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// The inclusive upper bound of log2 bucket `i`, in raw units.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Formats a raw value: seconds for time histograms (recorded in
/// nanoseconds), the raw integer for size histograms.
fn units(raw: u64, time: bool) -> String {
    if time {
        format!("{}", raw as f64 / 1e9)
    } else {
        format!("{raw}")
    }
}

/// Renders an aggregate in the Prometheus text exposition format 0.0.4.
pub fn render_prometheus(agg: &Aggregate) -> String {
    let mut out = String::new();
    for (name, fam) in &families(agg) {
        let time = fam.kind == Kind::Time;
        let _ = writeln!(out, "# HELP {name} {}", fam.help);
        let _ = writeln!(out, "# TYPE {name} {}", fam.kind.tags().1);
        for (label, point) in &fam.series {
            let labels = label_block(*label, None);
            match point {
                Point::Value(v) => {
                    let _ = writeln!(out, "{name}{labels} {v}");
                }
                Point::Sketch(s) => {
                    // The estimate, rounded: a cardinality gauge.
                    let _ = writeln!(out, "{name}{labels} {}", s.estimate().round());
                }
                Point::Hist(h) => {
                    let mut cum = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cum += b;
                        // Skip interior empty buckets to keep scrapes small,
                        // but always emit a bucket that advances the
                        // cumulative count (and the first/last for shape).
                        if *b == 0 && i != 0 && i != HIST_BUCKETS - 1 {
                            continue;
                        }
                        let le = units(bucket_upper(i), time);
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cum}",
                            label_block(*label, Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        label_block(*label, Some(("le", "+Inf"))),
                        h.count
                    );
                    let _ = writeln!(out, "{name}_sum{labels} {}", units(h.sum, time));
                    let _ = writeln!(out, "{name}_count{labels} {}", h.count);
                }
            }
        }
    }
    out
}

/// Renders the JSON form of an aggregate (see [`Aggregate::to_json`]).
pub(crate) fn aggregate_json(agg: &Aggregate) -> String {
    let mut out = String::from("{\"families\":[");
    for (fi, (name, fam)) in families(agg).iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"kind\":\"{}\",\"help\":{},\"series\":[",
            json_string(name),
            fam.kind.tags().0,
            json_string(fam.help)
        );
        for (si, (label, point)) in fam.series.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str("{\"labels\":{");
            if let Some((k, v)) = label {
                let _ = write!(out, "{}:{}", json_string(k), json_string(v));
            }
            out.push_str("},");
            match point {
                Point::Value(v) => {
                    let _ = write!(out, "\"value\":{v}");
                }
                Point::Sketch(s) => {
                    let occupied = s.registers().iter().filter(|&&r| r != 0).count();
                    let _ = write!(
                        out,
                        "\"estimate\":{},\"occupied_registers\":{occupied}",
                        s.estimate().round()
                    );
                }
                Point::Hist(h) => {
                    let _ = write!(out, "\"count\":{},\"sum\":{},\"buckets\":[", h.count, h.sum);
                    let filled = h.buckets.iter().enumerate().filter(|(_, b)| **b != 0);
                    for (bi, (i, b)) in filled.enumerate() {
                        if bi > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{i},{b}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Checks that `text` is well-formed Prometheus text exposition: every
/// line is a comment (`# HELP` / `# TYPE` with a known type) or a sample
/// (`name{labels} value`), names are legal, label blocks are balanced
/// with quoted escaped values, every value parses as a float, and every
/// sample belongs to a family with a preceding `# TYPE` declaration.
///
/// This is what the scrape smoke test and the scrape-under-load test run
/// on every body they fetch — a torn or interleaved exposition fails
/// here.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {n}: bad TYPE metric name `{name}`"));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {n}: unknown TYPE `{kind}`"));
                }
                types.insert(name.to_string(), kind.to_string());
                continue;
            }
            if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl.split(' ').next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {n}: bad HELP metric name `{name}`"));
                }
                continue;
            }
            continue; // other comments are legal
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {n}: no value separator"))?;
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(format!("line {n}: bad metric name `{name}`"));
        }
        let rest = &line[name_end..];
        let value_part = if let Some(after_brace) = rest.strip_prefix('{') {
            let close = find_label_block_end(after_brace)
                .ok_or_else(|| format!("line {n}: unterminated label block"))?;
            let labels = &after_brace[..close];
            validate_labels(labels).map_err(|e| format!("line {n}: {e}"))?;
            after_brace[close + 1..].trim_start()
        } else {
            rest.trim_start()
        };
        let value = value_part.split(' ').next().unwrap_or("");
        let float_ok = value.parse::<f64>().is_ok()
            || matches!(value, "+Inf" | "-Inf" | "NaN");
        if !float_ok {
            return Err(format!("line {n}: unparseable value `{value}`"));
        }
        // Family check: histogram children map back to their base family.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (types.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(format!("line {n}: sample `{name}` has no TYPE declaration"));
        }
    }
    Ok(())
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Index of the closing `}` of a label block (input starts just past the
/// opening `{`), skipping quoted values with backslash escapes.
fn find_label_block_end(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = 0;
    let mut in_quotes = false;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_quotes => i += 1, // skip escaped char
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

fn validate_labels(labels: &str) -> Result<(), String> {
    if labels.is_empty() {
        return Ok(());
    }
    let mut rest = labels;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label pair without `=` in `{rest}`"))?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("bad label name `{key}`"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value after `{key}`"));
        }
        // Find closing quote, honoring escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        let mut closed = None;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 1,
                b'"' => {
                    closed = Some(i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let close = closed.ok_or_else(|| format!("unterminated value for `{key}`"))?;
        rest = &after[close + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| format!("junk after value for `{key}`"))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{series, Class, Tracer};

    fn sample_aggregate() -> Aggregate {
        let t = Tracer::aggregate_only();
        t.counter(&series("req.handled", "kind", "a\"b"), Class::Skeleton, 7);
        t.level("queue.depth", Class::Effort, 3);
        t.span("engine.run", Class::Skeleton, None).end(None, &[]);
        t.update(|a| {
            a.observe_size("engine.batch_deltas", 0);
            a.observe_size("engine.batch_deltas", 1024);
            let mut s = HllCell::new();
            for v in 0..200u64 {
                s.observe_u64(v);
            }
            a.merge_sketch("engine.distinct_tuples", &s);
        });
        t.aggregate()
    }

    #[test]
    fn names_follow_the_one_rule() {
        assert_eq!(exposition_name("engine.join_probes", Kind::Counter), "dp_engine_join_probes_total");
        assert_eq!(exposition_name("engine.run", Kind::Time), "dp_engine_run_seconds");
        assert_eq!(exposition_name("engine.peak_tuples", Kind::Level), "dp_engine_peak_tuples");
        assert_eq!(exposition_name("engine.batch_deltas", Kind::Size), "dp_engine_batch_deltas");
        assert_eq!(exposition_name("engine.distinct_flows", Kind::Sketch), "dp_engine_distinct_flows");
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = render_prometheus(&sample_aggregate());
        validate_exposition(&text).unwrap();
        assert!(text.contains("# HELP dp_req_handled_total req.handled"));
        assert!(text.contains("# TYPE dp_req_handled_total counter"));
        // The label value's quote is escaped and does not break parsing.
        assert!(text.contains("dp_req_handled_total{kind=\"a\\\"b\"} 7"));
        assert!(text.contains("# TYPE dp_queue_depth gauge"));
        assert!(text.contains("dp_queue_depth 3"));
        assert!(text.contains("# TYPE dp_engine_run_seconds histogram"));
        assert!(text.contains("dp_engine_run_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("dp_engine_run_seconds_count 1"));
        assert!(text.contains("dp_engine_batch_deltas_bucket{le=\"0\"} 1"));
        assert!(text.contains("dp_engine_batch_deltas_sum 1024"));
        assert!(text.contains("# TYPE dp_engine_distinct_tuples gauge"));
    }

    #[test]
    fn labeled_series_share_one_family_block() {
        let t = Tracer::aggregate_only();
        for rule in ["r1", "r2"] {
            t.counter(&series("engine.rule_fired", "rule", rule), Class::Skeleton, 1);
        }
        // Sorts between the two labeled series' family and its label block.
        t.counter("engine.rule_fired_x", Class::Skeleton, 1);
        let text = render_prometheus(&t.aggregate());
        validate_exposition(&text).unwrap();
        assert_eq!(text.matches("# TYPE dp_engine_rule_fired_total ").count(), 1);
        assert!(text.contains("dp_engine_rule_fired_total{rule=\"r1\"} 1\ndp_engine_rule_fired_total{rule=\"r2\"} 1\n"));
    }

    #[test]
    fn json_has_expected_shape() {
        let json = sample_aggregate().to_json();
        assert!(json.starts_with("{\"families\":["));
        assert!(json.contains("\"name\":\"dp_req_handled_total\""));
        assert!(json.contains("\"kind\":\"counter\""));
        assert!(json.contains("\"labels\":{\"kind\":\"a\\\"b\"},\"value\":7"));
        assert!(json.contains("\"kind\":\"hll\""));
        assert!(json.contains("\"count\":2,\"sum\":1024,\"buckets\":[[0,1],[11,1]]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn validator_rejects_malformed_bodies() {
        assert!(validate_exposition("dp_x 1").is_err(), "sample without TYPE");
        assert!(
            validate_exposition("# TYPE dp_x counter\ndp_x one").is_err(),
            "non-float value"
        );
        assert!(
            validate_exposition("# TYPE dp_x counter\ndp_x{a=b} 1").is_err(),
            "unquoted label value"
        );
        assert!(
            validate_exposition("# TYPE dp_x counter\ndp_x{a=\"b} 1").is_err(),
            "unterminated label value"
        );
        assert!(validate_exposition("# TYPE dp_x counter\ndp_x{a=\"b\"} 1").is_ok());
    }

    #[test]
    fn empty_aggregate_renders_empty() {
        let agg = Aggregate::default();
        assert_eq!(render_prometheus(&agg), "");
        assert_eq!(agg.to_json(), "{\"families\":[]}");
        validate_exposition("").unwrap();
    }
}
