//! `repro -- trace <scenario>` / `repro -- stats <scenario>`: run one
//! diagnostic scenario with a tracer attached (or dump the engine's
//! counters) for a single named scenario.
//!
//! The trace subcommand threads **one** shared [`Tracer`] through the good
//! execution, the bad execution, and the DiffProv pipeline, so engine
//! phases, provenance recording, tree extraction, and the alignment rounds
//! accumulate in a single aggregate. The text summary mirrors the Figure
//! 7/8 decomposition (and is derived from the very same aggregate the
//! BENCH numbers come from).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use diffprov_core::{same_run, DiffProv, Metrics, Report, Scenario};
use dp_ndlog::join_profile_json;
use dp_trace::{Aggregate, Tracer};
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

/// One traced diagnosis: the DiffProv report plus the aggregate.
pub struct TraceRun {
    /// The diagnosis result.
    pub report: Report,
    /// Every series the diagnosis reported.
    pub aggregate: Aggregate,
    /// Events logged by the executions diagnosed: one log when both
    /// events come from it, both otherwise.
    pub logged: usize,
}

/// Runs DiffProv on `scenario` with one tracer shared by both executions
/// and the pipeline, and reads its aggregate.
pub fn trace_scenario(scenario: &Scenario) -> Result<TraceRun> {
    let tracer = Tracer::aggregate_only();
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
    let (good, bad) = (&scenario.good_exec, &scenario.bad_exec);
    let logged = if same_run(good, bad) {
        bad.log.len()
    } else {
        good.log.len() + bad.log.len()
    };
    Ok(TraceRun {
        report,
        aggregate: tracer.aggregate(),
        logged,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Heading of the summary's tail section.
const SERIES_HEADING: &str = "every series the aggregate holds, by name:";

/// Renders the human-readable summary of a traced run: verdict, the
/// Figure 7/8 phase breakdown, per-span timing, the rules ranked by join
/// effort, and every other series the aggregate holds, by name.
pub fn summary(run: &TraceRun) -> String {
    let agg = &run.aggregate;
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
    // What the replays read of the log: the slices the trees depend on,
    // their owners and closure rounds, the owned events the guard left
    // out, or why the program keeps its whole log (or gives the guard up).
    let _ = writeln!(
        s,
        "      slice: {} of {} logged events, {} owners, {} closure rounds, \
         {} left out by the guard{}",
        agg.counter("replay.slice_events"),
        run.logged,
        agg.counter("replay.slice_owners"),
        agg.counter("replay.slice_rounds"),
        agg.counter("replay.slice_guard_dropped"),
        reasons(agg, "replay.slice_refused")
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

    // The tail: whatever else reports to the handle is readable here, in
    // the aggregate's own (name) order, so no series lacks a reader.
    let _ = writeln!(s, "\n  {SERIES_HEADING}");
    for (kind, readings) in [("counters", &agg.counters), ("levels", &agg.levels)] {
        let _ = writeln!(s, "    {kind}:");
        for (name, v) in readings {
            let _ = writeln!(s, "      {name} {v}");
        }
    }
    let _ = writeln!(s, "    size histograms (count sum):");
    for (name, h) in &agg.sizes {
        let _ = writeln!(s, "      {name} {} {}", h.count, h.sum);
    }
    s
}

/// The reasons counted under `family{why}` — a replay's for keeping its
/// whole log or giving a slice's guard up — as ` (refused: size x1)`;
/// empty when there are none.
fn reasons(agg: &Aggregate, family: &str) -> String {
    let why: Vec<String> = agg
        .counters
        .iter()
        .filter_map(|(name, n)| match dp_trace::split_series(name) {
            (f, Some(("why", why))) if f == family => Some(format!("{why} x{n}")),
            _ => None,
        })
        .collect();
    if why.is_empty() {
        String::new()
    } else {
        format!(" (refused: {})", why.join(", "))
    }
}

/// Replays the scenario's bad execution and renders the engine's
/// [`dp_ndlog::Stats`] and per-rule join profile as JSON.
pub fn stats_json(scenario: &Scenario) -> Result<String> {
    let replayed = scenario.bad_exec.replay()?;
    Ok(format!(
        "{{\"scenario\":{},\"stats\":{},\"join_profile\":{}}}",
        dp_trace::json_string(scenario.name),
        replayed.engine.stats().to_json(),
        join_profile_json(&replayed.engine.join_profile())
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_replay::DurableStore;

    /// Replays both executions of `scenario` with one tracer cloned into
    /// them and extracts each one's event tree — engine, recorder and
    /// extraction series — then diagnoses the scenario with the same tracer
    /// as the pipeline's, for the `diffprov.*` series. The diagnosis replays
    /// the scenario's own, untraced executions, so every engine counter reads
    /// exactly the two replays above.
    fn scenario_aggregate(scenario: &Scenario) -> Aggregate {
        let tracer = Tracer::aggregate_only();
        for (exec, event) in [
            (&scenario.good_exec, &scenario.good_event),
            (&scenario.bad_exec, &scenario.bad_event),
        ] {
            let mut exec = exec.clone();
            exec.tracer = tracer.clone();
            exec.replay().unwrap().query_at(&event.tref, event.at);
        }
        let dp = DiffProv {
            tracer: tracer.clone(),
            ..DiffProv::default()
        };
        scenario.diagnose_with(&dp).unwrap();
        tracer.aggregate()
    }

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

    /// A traced diagnosis yields a summary whose phase totals derive from
    /// its aggregate.
    #[test]
    fn traced_diagnosis_produces_outputs() {
        let scenario = find_scenario("SDN1").unwrap();
        let run = trace_scenario(&scenario).unwrap();
        assert!(run.report.succeeded());
        assert!(run.aggregate.span_count("engine.run") > 0);
        assert!(run.aggregate.span_count("diffprov.find_seeds") == 1);
        let text = summary(&run);
        assert!(text.contains("phase breakdown"), "{text}");
        let bytes = run.aggregate.level("prov.bytes");
        assert!(bytes > 0 && text.contains(&format!(" graph records in {bytes} bytes (")), "{text}");
        assert!(text.contains("top rules by join effort"), "{text}");
    }

    /// The summary's tail names every counter, level and size histogram
    /// of the aggregate exactly once, each group in name order — a series
    /// added later cannot be unreadable.
    #[test]
    fn summary_tail_lists_every_series_once() {
        for name in ["SDN1", "campus"] {
            let run = trace_scenario(&find_scenario(name).unwrap()).unwrap();
            let agg = &run.aggregate;
            let text = summary(&run);
            let (_, tail) = text.split_once(SERIES_HEADING).expect(name);
            let mut groups: Vec<Vec<&str>> = Vec::new();
            for line in tail.lines().skip(1) {
                match line.strip_prefix("      ") {
                    Some(entry) => groups
                        .last_mut()
                        .unwrap()
                        .push(entry.split(' ').next().unwrap()),
                    None => groups.push(Vec::new()),
                }
            }
            // A map's key order is name order, so equality below is also
            // "sorted, each name once, nothing else".
            let held: [Vec<&str>; 3] = [
                agg.counters.keys().map(String::as_str).collect(),
                agg.levels.keys().map(String::as_str).collect(),
                agg.sizes.keys().map(String::as_str).collect(),
            ];
            assert!(held.iter().all(|keys| !keys.is_empty()), "{name}: vacuous");
            assert_eq!(groups, held, "{name}:\n{tail}");
        }
    }

    /// Every layer reports to an attached handle — engine, recorder,
    /// extraction, pipeline — not the engine alone.
    #[test]
    fn every_layer_reports_to_an_attached_handle() {
        let agg = scenario_aggregate(&find_scenario("SDN1").unwrap());
        for span in ["engine.run", "prov.extract", "diffprov.find_seeds"] {
            assert!(agg.span_count(span) > 0, "no {span} span");
        }
        for counter in ["engine.events", "prov.events", "diffprov.rounds"] {
            assert!(agg.counter(counter) > 0, "no {counter} counter");
        }
        for level in [
            "engine.peak_interned",
            "prov.live_records",
            "prov.bytes",
            "prov.bytes_per_record",
        ] {
            assert!(agg.level(level) > 0, "no {level} level");
        }
        for size in ["prov.tree_vertices", "diffprov.delta_changes"] {
            assert!(agg.sizes.contains_key(size), "no {size} histogram");
        }
        assert_eq!(agg.counter("diffprov.diagnoses{outcome=verified}"), 1);
    }

    /// The engine counters read the two replays and nothing else: the
    /// diagnosis riding along on the same tracer replays untraced.
    #[test]
    fn engine_counters_read_exactly_the_two_replays() {
        let scenario = find_scenario("SDN1").unwrap();
        let events = |exec: &dp_replay::Execution| exec.replay().unwrap().engine.stats().events;
        let agg = scenario_aggregate(&scenario);
        assert_eq!(
            agg.counter("engine.events"),
            events(&scenario.good_exec) + events(&scenario.bad_exec)
        );
        assert_eq!(agg.span_count("engine.run"), 2);
    }

    /// A spill and a recovery report the store on the execution's tracer.
    #[test]
    fn durable_replay_reports_the_store_families() {
        let scenario = find_scenario("SDN1").unwrap();
        let tracer = Tracer::aggregate_only();
        let mut exec = scenario.bad_exec.clone();
        exec.tracer = tracer.clone();
        let mut store = DurableStore::temp().unwrap();
        exec.spill_into(&mut store).unwrap();
        let reopened = DurableStore::open(store.dir()).unwrap();
        exec.recovered_stream_digest(&reopened).unwrap();
        let agg = tracer.aggregate();
        assert_eq!(agg.counter("store.sealed_events"), exec.log.len() as u64);
        assert!(agg.level("store.layer_files") > 0 && agg.level("store.layer_bytes") > 0);
        assert!(agg.span_count("store.seal") > 0);
        assert_eq!(agg.span_count("store.recovery"), 1);
    }

    /// UPDATETREE is one more replay: of a held whole log patched, or of
    /// the campus slice's held cut log, which Δ does not widen — no cut
    /// beyond the closure rounds of the slice's first replay, which the
    /// summary's `slice:` line describes.
    #[test]
    fn update_tree_replays_what_it_holds() {
        let scenario = find_scenario("SDN1").unwrap();
        let delta = scenario.diagnose().unwrap().delta;
        let tracer = Tracer::aggregate_only();
        let mut exec = scenario.bad_exec.clone();
        exec.tracer = tracer.clone();
        exec.replay().unwrap().update_tree(&exec, &delta, 0).unwrap();
        let agg = tracer.aggregate();
        // One more replay: the patched log's events, the log's own replay
        // having scheduled its events before.
        assert_eq!(agg.counter("replay.scheduled"), 2 * exec.log.len() as u64);

        // DiffProv's one call on the campus patches the held cut log. The
        // log is indexed once, by its first diagnosis, and a repeat on a
        // copy of the scenario reads the same index.
        let campus = find_scenario("campus").unwrap();
        let run = trace_scenario(&campus).unwrap();
        let agg = &run.aggregate;
        assert_eq!(run.report.rounds.len(), 1, "{}", run.report);
        assert_eq!(agg.span_count("replay.slice_index"), 1);
        assert!(agg.counter("replay.index_events") >= run.logged as u64);
        assert_eq!(agg.span_count("replay.slice_cut"), agg.counter("replay.slice_rounds"));
        let again = trace_scenario(&campus).unwrap().aggregate;
        assert_eq!(again.counter("replay.index_events"), 0);
        assert_eq!(again.span_count("replay.slice_index"), 0);
        let text = summary(&run);
        let line = "      slice: 30 of 1426 logged events, 4 owners, 2 closure rounds";
        assert!(text.contains(line), "{text}");

        // A program that keeps its whole log names its reasons.
        let tracer = Tracer::aggregate_only();
        tracer.counter("replay.slice_refused{why=size}", 1);
        tracer.counter("replay.slice_refused{why=native}", 2);
        assert_eq!(
            reasons(&tracer.aggregate(), "replay.slice_refused"),
            " (refused: native x2, size x1)"
        );
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
