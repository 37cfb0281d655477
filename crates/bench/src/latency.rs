//! Section 6.4: the runtime latency overhead of provenance logging.
//!
//! Measured as in the paper: the same workload with capture enabled
//! (provenance recorder attached) vs. disabled (a null sink), plus the
//! MapReduce checksum experiment — computing input-file checksums on every
//! read vs. caching them at file creation, the optimization the paper
//! reports cutting its MapReduce overhead from 2.3% to 0.2%.

use std::sync::Arc;
use std::time::Instant;

use dp_mapreduce::{build_job, generate as gen_corpus, CorpusConfig, JobConfig, Pipeline};
use dp_ndlog::{Engine, ProvEvent, ProvenanceSink};
use dp_replay::{Execution, StorageModel};
use dp_sdn::{generate as gen_trace, sdn_program, TraceConfig, Topology};
use dp_types::codec::fnv64;
use dp_types::{NodeId, Result};

/// The *runtime* logging engine: the paper's query-time approach writes
/// only base events to the log at runtime (Section 5) — graph construction
/// is deferred to replay. This sink encodes base events the way the
/// logging engine would serialize them, and discards derivations.
struct RuntimeLogSink {
    model: StorageModel,
    buffer: Vec<u8>,
}

impl RuntimeLogSink {
    fn new() -> Self {
        RuntimeLogSink {
            model: StorageModel::default(),
            buffer: Vec::new(),
        }
    }
}

impl ProvenanceSink for RuntimeLogSink {
    fn record(&mut self, event: ProvEvent) {
        let (time, tuple) = match &event {
            ProvEvent::InsertBase { time, tuple, .. }
            | ProvEvent::DeleteBase { time, tuple, .. } => (*time, tuple),
            _ => return, // derivations are reconstructed at query time
        };
        self.buffer.extend_from_slice(&time.to_le_bytes());
        self.buffer.push(tuple.table.as_str().len() as u8);
        for v in &tuple.args {
            // Emulate the fixed-size binary record encoding.
            let n = self.model.value_bytes(v);
            self.buffer.extend(std::iter::repeat_n(0u8, n));
        }
    }
}

/// Replays an execution with the runtime logging engine attached,
/// returning the logged byte count.
fn replay_logged(exec: &Execution) -> Result<usize> {
    let mut engine = Engine::new(Arc::clone(&exec.program), RuntimeLogSink::new());
    exec.log.schedule_into(&mut engine)?;
    engine.run()?;
    Ok(engine.into_sink().buffer.len())
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

fn best_of<F: FnMut() -> Result<()>>(runs: usize, mut f: F) -> Result<f64> {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = Instant::now();
        f()?;
        best = best.min(t.elapsed().as_secs_f64());
    }
    Ok(best)
}

/// SDN packet-processing overhead: a trace streamed through a two-switch
/// pipeline, with and without the graph recorder.
pub fn sdn_overhead(packets: usize, runs: usize) -> Result<Overhead> {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S1", "S2"]);
    topo.link("S1", "S2");
    let p_host = topo.host("S2", "sink");
    let program = sdn_program("ctl")?;
    let mut exec = Execution::new(Arc::clone(&program));
    topo.emit(&mut exec.log, 10);
    let ctl = NodeId::new("ctl");
    let any = dp_types::prefix::cidr("0.0.0.0/0");
    exec.log.insert(
        10,
        ctl,
        dp_sdn::cfg_entry(1, "S1", 1, any, any, topo.port_towards("S1", "S2")),
    );
    exec.log
        .insert(10, ctl, dp_sdn::cfg_entry(2, "S2", 1, any, any, p_host));
    let trace = gen_trace(&TraceConfig {
        packets,
        ..Default::default()
    });
    for (i, p) in trace.packets.into_iter().enumerate() {
        exec.log.insert(100 + i as u64, "S1", p);
    }
    let baseline = best_of(runs, || exec.replay_null().map(|_| ()))?;
    let with_capture = best_of(runs, || replay_logged(&exec).map(|_| ()))?;
    Ok(Overhead {
        workload: format!("SDN ({packets} packets)"),
        baseline_secs: baseline,
        with_capture_secs: with_capture,
    })
}

/// MapReduce job overhead: the WordCount job with and without the
/// recorder.
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
    let baseline = best_of(runs, || exec.replay_null().map(|_| ()))?;
    let with_capture = best_of(runs, || replay_logged(&exec).map(|_| ()))?;
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
