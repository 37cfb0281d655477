//! # dp-bench — the evaluation harness
//!
//! One module per table/figure of the paper's Section 6, each exposing a
//! function that runs the experiment and returns structured results. The
//! `repro` binary prints them in the paper's layout:
//!
//! ```text
//! cargo run -p dp-bench --release --bin repro -- all
//! ```
//!
//! | subcommand   | reproduces                                            |
//! |--------------|-------------------------------------------------------|
//! | `table1`     | Table 1 — answer sizes of five diagnostic techniques  |
//! | `fig5`       | Figure 5 — logging rate vs. traffic rate              |
//! | `fig6`       | Figure 6 — logging rate vs. packet size               |
//! | `fig7`       | Figure 7 — query turnaround, DiffProv vs. Y!          |
//! | `fig8`       | Figure 8 — reasoning-time decomposition               |
//! | `unsuitable` | §6.3 — unsuitable reference events                    |
//! | `latency`    | §6.4 — logging latency overhead                       |
//! | `mrstorage`  | §6.5 — MapReduce log sizes                            |
//! | `complex`    | §6.7 — campus network with faults and noise           |
//! | `ablation`   | design-choice ablations (butterfly, noise)            |
//! | `trace <s>`  | one scenario under a full tracer → summary + trace files|
//! | `stats <s>`  | engine counters/join profile of one scenario, as JSON  |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod complex;
pub mod latency;
pub mod query;
pub mod storage;
pub mod table1;
pub mod trace_cmd;
pub mod unsuitable;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unsuitable::Category;

    /// The headline claim of the paper (Table 1's shape): classical
    /// provenance returns tens-to-hundreds of vertexes, the plain diff is
    /// no better (sometimes *worse* than either tree), and DiffProv
    /// returns one or two changes.
    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1::table1().unwrap();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.good >= 40, "{}: good tree too small ({})", r.query, r.good);
            assert!(r.bad >= 3, "{}: bad tree too small ({})", r.query, r.bad);
            assert!(r.diffprov_total() <= 2, "{}", r.query);
            assert!(r.verified, "{}", r.query);
            // Dramatic reduction vs. the Y! baseline.
            assert!(
                r.good / r.diffprov_total().max(1) >= 20,
                "{}: reduction factor too small",
                r.query
            );
        }
        // SDN4 takes two rounds of one change each.
        let sdn4 = rows.iter().find(|r| r.query == "SDN4").unwrap();
        assert_eq!(sdn4.diffprov_per_round, vec![1, 1]);
        // The butterfly effect: in at least one scenario, the plain diff is
        // larger than either individual tree (Section 2.5).
        assert!(
            rows.iter().any(|r| r.plain_diff > r.good.max(r.bad)),
            "no scenario shows the butterfly effect"
        );
    }

    /// Figure 5's shape: logging rate is linear in the traffic rate and
    /// stays below the SSD's sequential write rate even at 10 Gbps.
    #[test]
    fn fig5_is_linear_and_under_ssd() {
        let cost = storage::packet_log_cost(2_000, 500).unwrap();
        assert!(cost.bytes_per_packet > 0.0);
        let points = storage::fig5(&cost);
        for p in &points {
            assert!(p.within_ssd(), "{p}");
        }
        // Linearity: rate ratio equals traffic ratio.
        let first = &points[0];
        let last = points.last().unwrap();
        let ratio = last.logging_rate / first.logging_rate;
        let traffic_ratio = last.traffic_bps / first.traffic_bps;
        assert!((ratio - traffic_ratio).abs() / traffic_ratio < 1e-9);
    }

    /// Figure 6's shape: at a fixed bit rate, the logging rate *decreases*
    /// as packets grow (fixed-size records, fewer packets per second).
    #[test]
    fn fig6_decreases_with_packet_size() {
        let costs: Vec<(i64, storage::PacketLogCost)> = [500i64, 1000, 1500]
            .iter()
            .map(|&len| (len, storage::packet_log_cost(500, len).unwrap()))
            .collect();
        // Per-packet record size is independent of the packet length: the
        // sealed records hold header fields, not payloads.
        let b0 = costs[0].1.bytes_per_packet;
        for (_, c) in &costs {
            assert!((c.bytes_per_packet - b0).abs() < 1e-9);
        }
        let points = storage::fig6(&costs);
        assert!(points[0].logging_rate > points[1].logging_rate);
        assert!(points[1].logging_rate > points[2].logging_rate);
    }

    /// Section 6.5: the MapReduce log holds metadata only — orders of
    /// magnitude smaller than the corpus.
    #[test]
    fn mr_log_is_metadata_sized() {
        let m = storage::mr_storage(200, 4).unwrap();
        assert!(m.corpus_bytes > 10_000);
        assert!(
            (m.log_bytes as f64) < (m.corpus_bytes as f64) * 0.5,
            "log {} vs corpus {}",
            m.log_bytes,
            m.corpus_bytes
        );
    }

    /// Section 6.5: the log's size does not depend on what the input files
    /// hold, so it is a shrinking fraction of a growing corpus. The one
    /// thing that grows is each file's recorded size, an integer field
    /// whose varint is a byte wider per seven bits. The bytes are pinned:
    /// 8 064 for four files of 200 lines.
    #[test]
    fn mr_log_does_not_grow_with_the_files() {
        let m = storage::mr_storage(200, 4).unwrap();
        let tenfold = storage::mr_storage(2_000, 4).unwrap();
        assert_eq!(m.log_bytes, 8_064);
        // The bytes of the files' sizes as the record writes them: the
        // varint of each size's zigzag image.
        let size_bytes = |lines_per_file| -> u64 {
            let corpus = dp_mapreduce::generate(&dp_mapreduce::CorpusConfig {
                files: 4,
                lines_per_file,
                ..Default::default()
            });
            corpus.iter().map(|f| u64::from((64 - (f.bytes << 1).leading_zeros()).div_ceil(7))).sum()
        };
        assert_eq!(
            tenfold.log_bytes - m.log_bytes,
            size_bytes(2_000) - size_bytes(200),
            "the log grew with the files' contents"
        );
        assert!(
            (tenfold.log_bytes as f64) < (tenfold.corpus_bytes as f64) * 0.1,
            "log {} vs corpus {}",
            tenfold.log_bytes,
            tenfold.corpus_bytes
        );
    }

    /// Section 6.3: every unsuitable reference fails (or degenerates to an
    /// empty change set), with both failure categories represented.
    #[test]
    fn unsuitable_references_fail_informatively() {
        let results = unsuitable::all_unsuitable().unwrap();
        assert!(results.len() >= 9, "expected ~10 queries, got {}", results.len());
        let mismatches = results
            .iter()
            .filter(|r| r.category == Category::SeedTypeMismatch)
            .count();
        let immutables = results
            .iter()
            .filter(|r| r.category == Category::ImmutableChange)
            .count();
        assert!(mismatches >= 3, "want >=3 seed mismatches: {results:#?}");
        assert!(immutables >= 2, "want >=2 immutable failures: {results:#?}");
        for r in &results {
            match &r.category {
                Category::Succeeded => assert!(
                    r.label.contains("own reference"),
                    "only the self-reference may align: {r:?}"
                ),
                _ => assert!(!r.diagnostic.is_empty()),
            }
        }
    }

    /// Figure 7's shape, read off engine-event counts — exact and
    /// load-independent, where the wall times beside them are
    /// sub-millisecond: a DiffProv query evaluates more than the one
    /// replay a Y! query is; a shared execution (SDN) costs at most one
    /// more replay per round; with a separate reference execution (the
    /// MapReduce rows, whose programs keep their whole logs) a query is the
    /// paper's from-scratch count, held exactly — the reference replay plus
    /// the bad log's replay and one replay of it patched per round — which
    /// reads the paper's "≈ 3x".
    #[test]
    fn query_times_are_replay_dominated() {
        let timings = query::all_timings().unwrap();
        assert_eq!(timings.len(), 8);
        let ratio = |t: &query::QueryTiming| t.diffprov_events as f64 / t.ybang_events as f64;
        for t in &timings {
            assert!(t.diffprov_events > t.ybang_events, "{}: no UPDATETREE?", t.name);
            if t.name.starts_with("SDN") {
                assert!(ratio(t) <= 1.0 + t.rounds as f64, "{}: {}", t.name, ratio(t));
            }
        }
        let events = |r: dp_replay::Replayed| r.engine.stats().events;
        for s in dp_mapreduce::all_mr_scenarios() {
            let t = timings.iter().find(|t| t.name == s.name).unwrap();
            let report = s.diagnose().unwrap();
            let seed = report.bad_seed.expect("a diagnosed row names its seed");
            let logged = s.bad_exec.log.events();
            let seeded = logged.iter().find(|e| e.node == seed.node && e.tuple == seed.tuple);
            let at = seeded.map_or(0, |e| e.due).saturating_sub(1);
            let bad = events(s.bad_exec.replay().unwrap());
            assert_eq!(t.ybang_events, bad, "{}: Y! replays the whole bad log", s.name);
            let mut want = events(s.good_exec.replay().unwrap()) + bad;
            let mut delta = Vec::new();
            for round in &report.rounds {
                delta.extend(round.changes.iter().cloned());
                want += events(s.bad_exec.replay_with(&delta, at).unwrap());
            }
            assert_eq!(t.diffprov_events, want, "{}", s.name);
            assert!((2.9..=3.1).contains(&ratio(t)), "{}: {}", s.name, ratio(t));
        }
        // SDN4 runs two rounds.
        let sdn4 = timings.iter().find(|t| t.name == "SDN4").unwrap();
        assert_eq!(sdn4.rounds, 2);
    }

    /// Ablation: the plain diff grows with the divergent path length
    /// while DiffProv's answer stays at one tuple.
    #[test]
    fn butterfly_effect_grows_with_path_length() {
        let rows = ablation::butterfly(&[1, 3, 6]).unwrap();
        for w in rows.windows(2) {
            assert!(w[1].plain_diff > w[0].plain_diff, "{rows:?}");
            assert!(w[1].good > w[0].good);
        }
        for r in &rows {
            assert_eq!(r.diffprov, 1, "{rows:?}");
        }
        // At the longest chain the diff dwarfs the answer by 2 orders.
        assert!(rows.last().unwrap().plain_diff >= 100, "{rows:?}");
    }

    /// Ablation: scaling the campus tables and traffic does not change
    /// the diagnosis.
    #[test]
    fn noise_does_not_change_the_diagnosis() {
        let rows = ablation::noise(&[(0, 0), (4, 120)]).unwrap();
        for r in &rows {
            assert!(r.delta <= 2, "{rows:?}");
            assert!(r.names_root_cause, "{rows:?}");
        }
        assert!(rows[1].entries > rows[0].entries * 2);
    }

    /// Section 6.7: the root cause is found despite 20 extra faults and
    /// background traffic, and the plain diff is again larger than either
    /// tree.
    #[test]
    fn complex_network_diagnosis() {
        let r = complex::complex(&dp_sdn::CampusConfig {
            background_packets: 60,
            bulk_entries_per_router: 2,
            ..Default::default()
        })
        .unwrap();
        assert!(r.entries > 100);
        assert_eq!(r.extra_faults, 20);
        assert!(r.delta <= 2, "{r:?}");
        assert!(r.names_root_cause, "{r:?}");
        assert!(r.verified, "{r:?}");
    }
}
