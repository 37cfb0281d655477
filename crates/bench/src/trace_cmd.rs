//! `repro -- trace <scenario>` / `repro -- stats <scenario>`: run one
//! diagnostic scenario with a fully recording tracer (or dump the engine's
//! counters) for a single named scenario.
//!
//! The trace subcommand threads **one** shared [`Tracer`] through the good
//! execution, the bad execution, and the DiffProv pipeline, so engine
//! phases, provenance recording, tree extraction, and the alignment rounds
//! interleave in a single stream. The text summary mirrors the Figure 7/8
//! decomposition (and is derived from the very same aggregate the BENCH
//! numbers come from); the raw stream is written as JSONL and as a Chrome
//! `trace_event` file loadable in Perfetto / `chrome://tracing`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use diffprov_core::{DiffProv, Metrics, Report, Scenario};
use dp_ndlog::join_profile_json;
use dp_trace::{Aggregate, Trace, Tracer};
use dp_types::Result;

/// The nine scenario names accepted by `trace` and `stats`.
pub const SCENARIO_NAMES: [&str; 9] = [
    "SDN1", "SDN2", "SDN3", "SDN4", "MR1-D", "MR1-I", "MR2-D", "MR2-I", "campus",
];

/// Constructs the named scenario (`None` for an unknown name). The campus
/// scenario uses the default (diagnosis-sized) configuration, not the
/// benchmark-sized one.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    if name == "campus" {
        return Some(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    }
    dp_sdn::all_sdn_scenarios()
        .into_iter()
        .chain(dp_mapreduce::all_mr_scenarios())
        .find(|s| s.name == name)
}

/// One traced diagnosis: the DiffProv report plus the full event stream.
pub struct TraceRun {
    /// The diagnosis result.
    pub report: Report,
    /// The drained trace (events + aggregate).
    pub trace: Trace,
}

/// Runs DiffProv on `scenario` with a fully recording tracer shared by
/// both executions and the pipeline, and drains the trace.
pub fn trace_scenario(scenario: &Scenario) -> Result<TraceRun> {
    let tracer = Tracer::full();
    let mut good_exec = scenario.good_exec.clone();
    let mut bad_exec = scenario.bad_exec.clone();
    good_exec.tracer = tracer.clone();
    bad_exec.tracer = tracer.clone();
    let scenario = Scenario {
        name: scenario.name,
        description: scenario.description,
        good_exec,
        bad_exec,
        good_event: scenario.good_event.clone(),
        bad_event: scenario.bad_event.clone(),
        expected_changes: scenario.expected_changes,
        expected_rounds: scenario.expected_rounds,
    };
    let dp = DiffProv {
        tracer: tracer.clone(),
        ..DiffProv::default()
    };
    let report = scenario.diagnose_with(&dp)?;
    Ok(TraceRun {
        report,
        trace: tracer.finish(),
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the human-readable summary of a traced run: verdict, the
/// Figure 7/8 phase breakdown, per-span timing, and the rules ranked by
/// join effort.
pub fn summary(run: &TraceRun) -> String {
    let agg = &run.trace.aggregate;
    let m = Metrics::from_aggregate_delta(&Aggregate::default(), agg);
    let mut s = String::new();

    match &run.report.failure {
        None => {
            let _ = writeln!(
                s,
                "  verdict: {} change(s) in {} round(s), verified: {}",
                run.report.delta.len(),
                run.report.rounds.len(),
                run.report.verified
            );
        }
        Some(f) => {
            let _ = writeln!(s, "  verdict: FAILED — {f}");
        }
    }
    let _ = writeln!(
        s,
        "  trees: good {} / bad {} vertexes",
        run.report.good_tree_size, run.report.bad_tree_size
    );
    // What the graph recorder of the latest replay holds.
    let _ = writeln!(
        s,
        "  recorder: {} graph records in {} bytes ({} per record)",
        agg.level("prov.live_records"),
        agg.level("prov.bytes"),
        agg.level("prov.bytes_per_record")
    );

    let _ = writeln!(s, "\n  phase breakdown (the Figure 7/8 decomposition):");
    let update_ns = agg.total_ns("diffprov.update_tree");
    let _ = writeln!(
        s,
        "    replay            {:>10.3} ms  (initial {:.3} ms + update-tree {:.3} ms)",
        m.replay.as_secs_f64() * 1e3,
        ms(agg.total_ns("diffprov.replay")),
        ms(update_ns)
    );
    let _ = writeln!(
        s,
        "    find seeds        {:>10.3} ms",
        m.find_seeds.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        s,
        "    detect divergence {:>10.3} ms  (incl. verify {:.3} ms)",
        m.detect_divergence.as_secs_f64() * 1e3,
        ms(agg.total_ns("diffprov.verify"))
    );
    let _ = writeln!(
        s,
        "    make appear       {:>10.3} ms",
        m.make_appear.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        s,
        "    total             {:>10.3} ms  (reasoning {:.3} ms)",
        m.total().as_secs_f64() * 1e3,
        m.reasoning().as_secs_f64() * 1e3
    );

    let _ = writeln!(s, "\n  span totals:");
    let mut spans: Vec<_> = agg.spans.iter().collect();
    spans.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then(a.0.cmp(b.0)));
    for (name, st) in spans {
        let _ = writeln!(
            s,
            "    {:<28} x{:<6} {:>10.3} ms  (mean {:>8.1} µs)",
            name,
            st.count,
            ms(st.sum),
            st.mean() as f64 / 1e3
        );
    }

    // engine.rule_candidates{rule=<r>} counts every tuple pairing a join
    // examined for rule <r> — the paper's measure of join effort.
    let mut rules: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
    for (name, v) in &agg.counters {
        let (family, Some(("rule", r))) = dp_trace::split_series(name) else {
            continue;
        };
        let column = match family {
            "engine.rule_candidates" => 0,
            "engine.rule_matches" => 1,
            "engine.rule_fired" => 2,
            "engine.rule_attempts" => 3,
            _ => continue,
        };
        rules.entry(r).or_default()[column] = *v;
    }
    let mut rows: Vec<_> = rules.into_iter().collect();
    rows.sort_by(|a, b| b.1[0].cmp(&a.1[0]).then(a.0.cmp(b.0)));
    let shown = rows.len().min(10);
    let _ = writeln!(
        s,
        "\n  top rules by join effort ({shown} of {} rules):",
        rows.len()
    );
    let _ = writeln!(
        s,
        "    {:<16} {:>12} {:>10} {:>8} {:>10}",
        "rule", "candidates", "matches", "fired", "attempts"
    );
    for (rule, [cand, matches, fired, attempts]) in rows.into_iter().take(shown) {
        let _ = writeln!(
            s,
            "    {rule:<16} {cand:>12} {matches:>10} {fired:>8} {attempts:>10}"
        );
    }
    s
}

/// Replays the scenario's bad execution and renders the engine's
/// [`dp_ndlog::Stats`] and per-rule join profile as JSON.
pub fn stats_json(scenario: &Scenario) -> Result<String> {
    let replayed = scenario.bad_exec.replay()?;
    Ok(format!(
        "{{\"scenario\":{},\"stats\":{},\"join_profile\":{}}}",
        dp_trace::json_string(scenario.name),
        replayed.engine.stats().to_json(),
        join_profile_json(replayed.engine.join_profile())
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every advertised name resolves, and an unknown one does not.
    #[test]
    fn scenario_lookup() {
        for name in SCENARIO_NAMES {
            let s = find_scenario(name).expect(name);
            // The campus scenario's internal name is capitalized "Campus".
            assert!(s.name.eq_ignore_ascii_case(name), "{} vs {name}", s.name);
        }
        assert!(find_scenario("SDN9").is_none());
    }

    /// A traced diagnosis yields a skeleton, both export formats, and a
    /// summary whose phase totals derive from the same aggregate.
    #[test]
    fn traced_diagnosis_produces_outputs() {
        let scenario = find_scenario("SDN1").unwrap();
        let run = trace_scenario(&scenario).unwrap();
        assert!(run.report.succeeded());
        assert!(!run.trace.events.is_empty());
        assert!(run.trace.aggregate.span_count("engine.run") > 0);
        assert!(run.trace.aggregate.span_count("diffprov.find_seeds") == 1);
        let skel = run.trace.skeleton();
        assert!(skel.contains("B diffprov.replay"), "{skel}");
        let chrome = run.trace.to_chrome();
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        let text = summary(&run);
        assert!(text.contains("phase breakdown"), "{text}");
        let bytes = run.trace.aggregate.level("prov.bytes");
        assert!(bytes > 0 && text.contains(&format!(" graph records in {bytes} bytes (")), "{text}");
        assert!(text.contains("top rules by join effort"), "{text}");
    }

    /// The stats dump names the scenario and carries both sections.
    #[test]
    fn stats_json_shape() {
        let scenario = find_scenario("SDN1").unwrap();
        let json = stats_json(&scenario).unwrap();
        assert!(json.starts_with("{\"scenario\":\"SDN1\",\"stats\":{"), "{json}");
        assert!(json.contains("\"join_profile\":{"), "{json}");
    }
}
