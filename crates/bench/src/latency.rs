//! Section 6.4: the runtime latency overhead of provenance logging.
//!
//! Measured as in the paper: the same workload with capture enabled
//! (every base event encoded as the layer file's record) vs. disabled (a
//! null sink), plus the
//! MapReduce checksum experiment — computing input-file checksums on every
//! read vs. caching them at file creation, the optimization the paper
//! reports cutting its MapReduce overhead from 2.3% to 0.2%.

use std::sync::Arc;
use std::time::Instant;

use dp_mapreduce::{build_job, generate as gen_corpus, CorpusConfig, JobConfig, Pipeline};
use dp_ndlog::{Engine, NullSink, ProvEvent, ProvenanceSink};
use dp_replay::layers::layer::encode_record;
use dp_replay::{BaseOp, Execution};
use dp_sdn::TraceConfig;
use dp_types::codec::{fnv64, Enc};
use dp_types::Result;

use crate::storage::border_execution;

/// The *runtime* logging engine: the paper's query-time approach writes
/// only base events to the log at runtime (Section 5) — graph construction
/// is deferred to replay. This sink encodes each base event as the layer
/// file's record, and discards derivations.
#[derive(Default)]
struct RuntimeLogSink {
    log: Enc,
    /// The first record that could not be encoded, if any.
    error: Option<dp_types::Error>,
}

impl ProvenanceSink for RuntimeLogSink {
    fn record(&mut self, event: ProvEvent) {
        let (time, op, node, tuple) = match &event {
            ProvEvent::InsertBase {
                time, node, tuple, ..
            } => (*time, BaseOp::Insert, *node, tuple),
            ProvEvent::DeleteBase {
                time, node, tuple, ..
            } => (*time, BaseOp::Delete, *node, tuple),
            _ => return, // derivations are reconstructed at query time
        };
        if let Err(e) = encode_record(&mut self.log, time, op, node, tuple) {
            self.error.get_or_insert(e);
        }
    }
}

/// Replays an execution's log into `sink` on a fresh engine, the same way
/// for both sides of a measurement, and returns the sink.
fn replay_into<S: ProvenanceSink>(exec: &Execution, sink: S) -> Result<S> {
    let mut engine = Engine::new(Arc::clone(&exec.program), sink);
    exec.log.schedule_into(&mut engine)?;
    engine.run()?;
    Ok(engine.into_sink())
}

/// One latency measurement.
#[derive(Clone, Debug)]
pub struct Overhead {
    /// The workload label.
    pub workload: String,
    /// Seconds without provenance capture.
    pub baseline_secs: f64,
    /// Seconds with capture enabled.
    pub with_capture_secs: f64,
}

impl Overhead {
    /// Relative overhead (e.g. 0.067 = 6.7%).
    pub fn relative(&self) -> f64 {
        (self.with_capture_secs - self.baseline_secs) / self.baseline_secs
    }
}

/// Times `exec` without and with the runtime log: one untimed warm-up
/// of each, then `runs` rounds alternating the two sides, so neither is
/// always the cold one. Returns the best time of each side.
fn time_both(exec: &Execution, runs: usize) -> Result<(f64, f64)> {
    let baseline = || replay_into(exec, NullSink).map(drop);
    let logged = || {
        let sink = replay_into(exec, RuntimeLogSink::default())?;
        match std::hint::black_box(sink).error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    };
    baseline()?;
    logged()?;
    let (mut best_base, mut best_logged) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        let t = Instant::now();
        baseline()?;
        best_base = best_base.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        logged()?;
        best_logged = best_logged.min(t.elapsed().as_secs_f64());
    }
    Ok((best_base, best_logged))
}

/// SDN packet-processing overhead: a trace streamed through the SDN1
/// border, with and without the runtime log.
pub fn sdn_overhead(packets: usize, runs: usize) -> Result<Overhead> {
    let exec = border_execution(packets, TraceConfig::default().packet_len)?;
    let (baseline, with_capture) = time_both(&exec, runs)?;
    Ok(Overhead {
        workload: format!("SDN ({packets} packets)"),
        baseline_secs: baseline,
        with_capture_secs: with_capture,
    })
}

/// MapReduce job overhead: the WordCount job with and without the
/// runtime log.
pub fn mr_overhead(lines_per_file: usize, runs: usize) -> Result<Overhead> {
    let corpus = gen_corpus(&CorpusConfig {
        files: 2,
        lines_per_file,
        ..Default::default()
    });
    let exec = build_job(
        &JobConfig {
            pipeline: Pipeline::Imperative,
            ..Default::default()
        },
        &corpus,
    );
    let (baseline, with_capture) = time_both(&exec, runs)?;
    Ok(Overhead {
        workload: format!("MapReduce ({} lines)", lines_per_file * 2),
        baseline_secs: baseline,
        with_capture_secs: with_capture,
    })
}

/// The checksum experiment of Section 6.4: the dominating MapReduce
/// logging cost was checksumming HDFS files on every read; computing the
/// checksum only at file creation removes it.
#[derive(Clone, Debug)]
pub struct ChecksumCosts {
    /// Seconds spent checksumming when every read re-hashes its file.
    pub per_read_secs: f64,
    /// Seconds when checksums are computed once per file and cached.
    pub cached_secs: f64,
    /// Number of reads simulated.
    pub reads: usize,
}

/// Measures both strategies over a generated corpus.
pub fn checksum_costs(lines_per_file: usize) -> ChecksumCosts {
    let corpus = gen_corpus(&CorpusConfig {
        files: 2,
        lines_per_file,
        ..Default::default()
    });
    let contents: Vec<String> = corpus.iter().map(|f| f.lines.join("\n")).collect();
    let reads: usize = corpus.iter().map(|f| f.lines.len()).sum();

    let t = Instant::now();
    let mut acc = 0u64;
    for f in &corpus {
        for _ in &f.lines {
            // Naive: every record read re-checksums its whole file.
            let idx = corpus.iter().position(|g| g.name == f.name).unwrap();
            acc ^= fnv64(contents[idx].as_bytes());
        }
    }
    let per_read_secs = t.elapsed().as_secs_f64();
    std::hint::black_box(acc);

    let t = Instant::now();
    let mut acc = 0u64;
    for c in &contents {
        acc ^= fnv64(c.as_bytes());
    }
    let cached_secs = t.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);

    ChecksumCosts {
        per_read_secs,
        cached_secs,
        reads,
    }
}
