//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p dp-bench --release --bin repro -- all
//! cargo run -p dp-bench --release --bin repro -- table1
//! ```

use dp_bench::{ablation, complex, latency, query, storage, table1, trace_cmd, unsuitable};

fn parse_flag(flag: &str, value: Option<&String>) -> usize {
    match value.and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("usage: repro -- [...] {flag} <positive integer>");
            std::process::exit(2);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--seeds N`, settable anywhere on the command line, sizes the `sim`
    // sweep.
    let mut seeds: u64 = 200;
    let mut args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--seeds" => {
                seeds = parse_flag("--seeds", raw.get(i + 1)) as u64;
                i += 2;
            }
            _ => {
                args.push(raw[i].clone());
                i += 1;
            }
        }
    }
    if args.is_empty() {
        dispatch("all");
        return;
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            cmd @ ("trace" | "stats") => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!(
                        "usage: repro -- {cmd} <scenario>; scenarios: {}",
                        trace_cmd::SCENARIO_NAMES.join(" ")
                    );
                    std::process::exit(2);
                };
                let Some(scenario) = trace_cmd::find_scenario(name) else {
                    eprintln!(
                        "unknown scenario {name:?}; available: {}",
                        trace_cmd::SCENARIO_NAMES.join(" ")
                    );
                    std::process::exit(2);
                };
                if cmd == "trace" {
                    run_trace(&scenario);
                } else {
                    run_stats(&scenario);
                }
                i += 2;
            }
            "sim" => {
                run_sim(seeds);
                i += 1;
            }
            what => {
                dispatch(what);
                i += 1;
            }
        }
    }
}

fn run_sim(seeds: u64) {
    banner(&format!(
        "Simulation: fault-injection sweep over {seeds} seeded scenarios"
    ));
    let corpus = std::path::Path::new("tests").join("corpus");
    let mut checked = 0u64;
    let summary = dp_sim::run_seeds(0, seeds, Some(&corpus), |seed, report| {
        checked += 1;
        if !report.passed() {
            println!(
                "  seed {seed}: {} invariant violation(s), shrinking...",
                report.violations.len()
            );
        } else if checked.is_multiple_of(50) {
            println!("  {checked} seeds checked...");
        }
    })
    .expect("every seed generates a scenario");
    println!(
        "  {} seeds: {} divergent, {} diagnosed, {} aligned by DiffProv",
        summary.seeds, summary.divergent, summary.diagnosed, summary.diagnosis_succeeded
    );
    let kinds: Vec<String> = summary
        .kind_counts
        .iter()
        .map(|(k, n)| format!("{k} x{n}"))
        .collect();
    println!("  injections applied: {}", kinds.join(", "));
    let failures: Vec<String> = summary
        .failure_counts
        .iter()
        .map(|(name, n)| format!("{name} x{n}"))
        .collect();
    if failures.is_empty() {
        println!("  failures: none");
    } else {
        println!("  failures: {}", failures.join(", "));
    }
    println!(
        "  sliced: {} of {} diagnoses equal over the slices and the whole logs",
        summary.judge_held, summary.diagnosed
    );
    for path in &summary.corpus_written {
        println!("  wrote shrunk repro {}", path.display());
    }
    if summary.passed() {
        println!("  all invariants held");
    } else {
        for (seed, v) in &summary.violations {
            eprintln!("  seed {seed}: {v}");
        }
        eprintln!(
            "  {} violation(s) across {} seeds",
            summary.violations.len(),
            summary.seeds
        );
        std::process::exit(1);
    }
}

fn run_trace(scenario: &diffprov_core::Scenario) {
    banner(&format!(
        "Trace: {} — {}",
        scenario.name, scenario.description
    ));
    let run = trace_cmd::trace_scenario(scenario).expect("traced diagnosis runs");
    print!("{}", trace_cmd::summary(&run));
}

fn run_stats(scenario: &diffprov_core::Scenario) {
    println!(
        "{}",
        trace_cmd::stats_json(scenario).expect("stats replay runs")
    );
}

fn dispatch(what: &str) {
    let run_all = what == "all";
    let mut ran = false;

    if run_all || what == "table1" {
        run_table1();
        ran = true;
    }
    if run_all || what == "fig5" {
        run_fig5();
        ran = true;
    }
    if run_all || what == "fig6" {
        run_fig6();
        ran = true;
    }
    if run_all || what == "fig7" || what == "fig8" {
        run_fig7_fig8(run_all || what == "fig7", run_all || what == "fig8");
        ran = true;
    }
    if run_all || what == "unsuitable" {
        run_unsuitable();
        ran = true;
    }
    if run_all || what == "latency" {
        run_latency();
        ran = true;
    }
    if run_all || what == "mrstorage" {
        run_mrstorage();
        ran = true;
    }
    if run_all || what == "complex" {
        run_complex();
        ran = true;
    }
    if run_all || what == "ablation" {
        run_ablation();
        ran = true;
    }
    if !ran {
        eprintln!(
            "unknown experiment {what:?}; available: all table1 fig5 fig6 fig7 fig8 \
             unsuitable latency mrstorage complex ablation \
             sim [--seeds N] \
             trace <scenario> stats <scenario>"
        );
        std::process::exit(2);
    }
}

fn run_ablation() {
    banner("Ablation 1: butterfly effect vs. divergent path length");
    println!(
        "  {:<6} {:>10} {:>10} {:>12} {:>10}",
        "hops", "good tree", "bad tree", "plain diff", "DiffProv"
    );
    for r in ablation::butterfly(&[1, 2, 4, 8, 12]).expect("butterfly runs") {
        println!(
            "  {:<6} {:>10} {:>10} {:>12} {:>10}",
            r.hops, r.good, r.bad, r.plain_diff, r.diffprov
        );
    }
    println!("  (the strawman grows with the path; DiffProv stays at one tuple)");

    banner("Ablation 2: diagnosis is insensitive to table size and traffic");
    println!(
        "  {:>9} {:>12} {:>7} {:>12} {:>12}",
        "entries", "background", "Δ size", "names cause", "turnaround"
    );
    for r in ablation::noise(&[(0, 0), (2, 60), (8, 300)]).expect("noise runs") {
        println!(
            "  {:>9} {:>12} {:>7} {:>12} {:>12.2?}",
            r.entries, r.background, r.delta, r.names_root_cause, r.elapsed
        );
    }

}

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

fn run_table1() {
    banner("Table 1: vertexes returned by five diagnostic techniques");
    let rows = table1::table1().expect("table 1 runs");
    print!("{}", table1::Table1Display(&rows));
    println!(
        "(DiffProv row: changes per alignment round; SDN4 runs two rounds. \
         All alignments verified: {})",
        rows.iter().all(|r| r.verified)
    );
}

fn run_fig5() {
    banner("Figure 5: logging rate vs. traffic rate (500-byte packets)");
    let cost = storage::packet_log_cost(20_000, 500).expect("trace runs");
    println!(
        "measured {:.1} B/packet of log ({} packets ingested in {:.2}s)",
        cost.bytes_per_packet, cost.packets, cost.ingest_seconds
    );
    for p in storage::fig5(&cost) {
        println!("  {p}");
    }
}

fn run_fig6() {
    banner("Figure 6: logging rate vs. packet size (1 Gbps)");
    let costs: Vec<(i64, storage::PacketLogCost)> = [500i64, 750, 1000, 1250, 1500]
        .iter()
        .map(|&len| (len, storage::packet_log_cost(5_000, len).expect("trace runs")))
        .collect();
    for p in storage::fig6(&costs) {
        println!("  {p}");
    }
}

fn run_fig7_fig8(fig7: bool, fig8: bool) {
    let timings = query::all_timings().expect("timings run");
    if fig7 {
        banner("Figure 7: query turnaround, DiffProv vs. Y!");
        println!(
            "  {:<8} {:>12} {:>12} {:>12} {:>12} {:>7} {:>10} {:>10}",
            "query", "Y! (ms)", "DiffProv", "replay", "reasoning", "rounds", "Y! events", "DiffProv"
        );
        for t in &timings {
            println!(
                "  {:<8} {:>12.2} {:>12.2} {:>12.2} {:>12.3} {:>7} {:>10} {:>10}",
                t.name,
                query::ms(t.ybang),
                query::ms(t.diffprov_total),
                query::ms(t.diffprov_replay),
                query::ms(t.diffprov_reasoning),
                t.rounds,
                t.ybang_events,
                t.diffprov_events
            );
        }
        println!("  (all times dominated by replay; reasoning is negligible)");
    }
    if fig8 {
        banner("Figure 8: decomposition of DiffProv's reasoning time (µs)");
        println!(
            "  {:<8} {:>12} {:>16} {:>14}",
            "query", "find seeds", "detect diverg.", "make appear"
        );
        for t in &timings {
            println!(
                "  {:<8} {:>12.1} {:>16.1} {:>14.1}",
                t.name,
                query::us(t.find_seeds),
                query::us(t.detect_divergence),
                query::us(t.make_appear)
            );
        }
    }
}

fn run_unsuitable() {
    banner("Section 6.3: unsuitable reference events");
    let results = unsuitable::all_unsuitable().expect("queries run");
    for r in &results {
        println!("  {:<60} -> {:?}", r.label, kind(&r.category));
        println!("      {}", r.diagnostic);
    }
    let mism = results
        .iter()
        .filter(|r| r.category == unsuitable::Category::SeedTypeMismatch)
        .count();
    let imm = results
        .iter()
        .filter(|r| r.category == unsuitable::Category::ImmutableChange)
        .count();
    println!(
        "  summary: {} queries, {} seed-type mismatches, {} immutable-tuple failures",
        results.len(),
        mism,
        imm
    );
}

fn kind(c: &unsuitable::Category) -> &'static str {
    match c {
        unsuitable::Category::SeedTypeMismatch => "seed-type mismatch",
        unsuitable::Category::ImmutableChange => "immutable tuple",
        unsuitable::Category::Other(_) => "other failure",
        unsuitable::Category::Succeeded => "aligned trivially",
    }
}

fn run_latency() {
    banner("Section 6.4: logging latency overhead");
    let sdn = latency::sdn_overhead(20_000, 7).expect("SDN workload runs");
    println!(
        "  {:<28} baseline {:.3}s, with capture {:.3}s -> {:+.1}%",
        sdn.workload,
        sdn.baseline_secs,
        sdn.with_capture_secs,
        sdn.relative() * 100.0
    );
    let mr = latency::mr_overhead(2_000, 7).expect("MR workload runs");
    println!(
        "  {:<28} baseline {:.3}s, with capture {:.3}s -> {:+.1}%",
        mr.workload,
        mr.baseline_secs,
        mr.with_capture_secs,
        mr.relative() * 100.0
    );
    let cs = latency::checksum_costs(4_000);
    println!(
        "  checksum strategies over {} reads: per-read {:.4}s vs cached {:.6}s ({}x cheaper)",
        cs.reads,
        cs.per_read_secs,
        cs.cached_secs,
        (cs.per_read_secs / cs.cached_secs) as u64
    );
}

fn run_mrstorage() {
    banner("Section 6.5: MapReduce log sizes (metadata only)");
    for (lines, files) in [(200usize, 2usize), (1000, 4), (5000, 8)] {
        let m = storage::mr_storage(lines, files).expect("job builds");
        println!(
            "  corpus {:>10} bytes -> durable log {:>7} bytes ({:.3}%)",
            m.corpus_bytes,
            m.log_bytes,
            m.log_bytes as f64 / m.corpus_bytes as f64 * 100.0
        );
    }
}

fn run_complex() {
    banner("Section 6.7: complex network diagnostics (campus backbone)");
    let r = complex::complex(&dp_sdn::CampusConfig {
        background_packets: 300,
        bulk_entries_per_router: 8,
        ..Default::default()
    })
    .expect("campus experiment runs");
    println!(
        "  {} forwarding/ACL entries, {} extra faults, {} background packets",
        r.entries, r.extra_faults, r.background_packets
    );
    println!(
        "  trees: good {} / bad {} vertexes; plain diff {} (larger than either: {})",
        r.good_tree,
        r.bad_tree,
        r.plain_diff,
        r.plain_diff > r.good_tree.max(r.bad_tree)
    );
    println!(
        "  DiffProv: {} change(s), misconfigured entry named: {}, verified: {}, in {:.2?}",
        r.delta, r.names_root_cause, r.verified, r.elapsed
    );
}
