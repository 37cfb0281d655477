//! Figures 7 and 8: query turnaround and reasoning-time decomposition.
//!
//! Figure 7 compares the time to answer a DiffProv query against the Y!
//! baseline (a classical provenance query for the bad tree). Both are
//! dominated by replay, and both replay the same slice of the bad log:
//! the one DiffProv reads the bad tree from, both events' for a shared
//! execution (the SDN scenarios) and the bad event's otherwise, closure
//! rounds included. DiffProv replays roughly twice as much (once more to
//! update the bad tree after inserting the change), three times when the
//! reference lives in a separate execution (the MapReduce scenarios).
//! Figure 8 decomposes the (tiny) pure-reasoning time into FINDSEED,
//! divergence detection, and MAKEAPPEAR.

use std::time::{Duration, Instant};

use diffprov_core::{same_run, DiffProv, Scenario};
use dp_trace::Tracer;
use dp_types::Result;

/// One scenario's timing results.
#[derive(Clone, Debug)]
pub struct QueryTiming {
    /// Scenario name.
    pub name: String,
    /// Y! baseline: replay the bad execution's slice and extract the bad
    /// tree.
    pub ybang: Duration,
    /// Engine events that Y! replay evaluated, the slice's closure rounds
    /// included.
    pub ybang_events: u64,
    /// DiffProv total turnaround.
    pub diffprov_total: Duration,
    /// Engine events the diagnosis evaluated: its initial replay(s) plus
    /// every UPDATETREE. Exact and load-independent, unlike the times.
    pub diffprov_events: u64,
    /// Of which: replay (including the UPDATETREE replays).
    pub diffprov_replay: Duration,
    /// Of which: pure reasoning.
    pub diffprov_reasoning: Duration,
    /// Reasoning decomposition (Figure 8).
    pub find_seeds: Duration,
    /// Divergence detection (taints + formula evaluation).
    pub detect_divergence: Duration,
    /// Making missing tuples appear (inversion + repair).
    pub make_appear: Duration,
    /// Number of alignment rounds.
    pub rounds: usize,
}

/// Measures one scenario.
pub fn measure(scenario: &Scenario) -> Result<QueryTiming> {
    // Y! baseline, under a counting handle: the slice DiffProv reads the
    // bad tree from.
    let (good_root, bad_root) = (&scenario.good_event.tref, &scenario.bad_event.tref);
    let shared = same_run(&scenario.good_exec, &scenario.bad_exec);
    let roots = [(&bad_root.node, &*bad_root.tuple), (&good_root.node, &*good_root.tuple)];
    let mut bad = scenario.bad_exec.clone();
    bad.tracer = Tracer::aggregate_only();
    let t = Instant::now();
    let (roots, at) = if shared {
        (&roots[..], scenario.bad_event.at.min(scenario.good_event.at))
    } else {
        (&roots[..1], scenario.bad_event.at)
    };
    let rb = bad.replay_slice(roots.iter().copied(), at)?;
    let _bad_tree = rb
        .query_at(&scenario.bad_event.tref, scenario.bad_event.at)
        .ok_or_else(|| dp_types::Error::Engine("bad event missing".into()))?;
    let ybang = t.elapsed();
    let ybang_events = bad.tracer.aggregate().counter("engine.events");
    drop(rb);

    // DiffProv, timed dark.
    let report = scenario.diagnose()?;
    let m = report.metrics;

    // The same diagnosis under a counting handle on both executions.
    let counting = Tracer::aggregate_only();
    let (mut good, mut bad) = (scenario.good_exec.clone(), scenario.bad_exec.clone());
    good.tracer = counting.clone();
    bad.tracer = counting.clone();
    DiffProv::default().diagnose(&good, &scenario.good_event, &bad, &scenario.bad_event)?;

    Ok(QueryTiming {
        name: scenario.name.to_string(),
        ybang,
        ybang_events,
        diffprov_total: m.total(),
        diffprov_events: counting.aggregate().counter("engine.events"),
        diffprov_replay: m.replay,
        diffprov_reasoning: m.reasoning(),
        find_seeds: m.find_seeds,
        detect_divergence: m.detect_divergence,
        make_appear: m.make_appear,
        rounds: report.rounds.len(),
    })
}

/// Measures all eight scenarios (Figure 7/8 data).
pub fn all_timings() -> Result<Vec<QueryTiming>> {
    let mut out = Vec::new();
    for s in dp_sdn::all_sdn_scenarios() {
        out.push(measure(&s)?);
    }
    for s in dp_mapreduce::all_mr_scenarios() {
        out.push(measure(&s)?);
    }
    Ok(out)
}

/// Milliseconds, for display.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds, for display.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
