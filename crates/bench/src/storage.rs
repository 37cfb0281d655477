//! Figures 5 and 6 (logging rate vs. traffic rate / packet size) and the
//! MapReduce log-size measurements of Section 6.5.
//!
//! The logging engine writes fixed-size records per packet (header +
//! timestamp), so the logging rate is `record_bytes × packets_per_second`.
//! We *measure* the record size by generating a real trace, streaming it
//! through the SDN1 border switch, and sealing its packet log into the
//! durable store — the per-packet cost is the layer files' size, codec
//! framing and checksums included — then scale to each traffic rate,
//! exactly as the paper scales its measurement to 1 Mbps–10 Gbps.

use std::fmt;

use dp_mapreduce::{build_job, generate as gen_corpus, CorpusConfig, JobConfig, Pipeline};
use dp_replay::layers::LAYER_EVENTS;
use dp_replay::{BaseEvent, DurableStore, EventLog, Execution};
use dp_sdn::{generate as gen_trace, sdn_program, TraceConfig, Topology};
use dp_types::{NodeId, Result, Sym};

/// The sequential-write rate of the paper's commodity SSD (bytes/s).
pub const SSD_RATE: f64 = 400e6;

/// The SDN1 border: switches S1–S2 and a `sink` host behind S2, one
/// wildcard entry on each switch at t=10, and a generated trace of
/// `packets` packets of `packet_len` bytes injected at S1 from t=100.
pub(crate) fn border_execution(packets: usize, packet_len: i64) -> Result<Execution> {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S1", "S2"]);
    topo.link("S1", "S2");
    let p_host = topo.host("S2", "sink");
    let mut exec = Execution::new(sdn_program("ctl")?);
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
        packet_len,
        ..Default::default()
    });
    for (i, p) in trace.packets.into_iter().enumerate() {
        exec.log.insert(100 + i as u64, "S1", p);
    }
    Ok(exec)
}

/// Seals the events of `log` that `keep` selects, in replay order, into a
/// fresh store as the logging engine spills them, and returns the size of
/// the layer files it wrote.
fn sealed_bytes(log: &EventLog, keep: impl Fn(&BaseEvent) -> bool) -> Result<u64> {
    let kept: Vec<BaseEvent> = log.events().iter().filter(|e| keep(e)).cloned().collect();
    let mut store = DurableStore::temp()?;
    for chunk in kept.chunks(LAYER_EVENTS) {
        store.seal_events(chunk)?;
    }
    Ok(store.layer_bytes())
}

/// Measured cost of logging one packet at the border switch.
pub struct PacketLogCost {
    /// On-disk bytes per packet record: the border switch's packet log
    /// sealed into layer files, measured from the file sizes.
    pub bytes_per_packet: f64,
    /// Packets measured.
    pub packets: usize,
    /// Wall-clock seconds the engine took to ingest the trace (sanity:
    /// logging keeps up).
    pub ingest_seconds: f64,
}

/// Streams `packets` packets of `packet_len` bytes through a minimal SDN1
/// border configuration and measures the per-packet log record size.
pub fn packet_log_cost(packets: usize, packet_len: i64) -> Result<PacketLogCost> {
    let exec = border_execution(packets, packet_len)?;
    // The border-switch packet log: pktIn records only.
    let pkt_in = Sym::new("pktIn");
    let bytes = sealed_bytes(&exec.log, |e| e.tuple.table == pkt_in)? as f64;

    let t0 = std::time::Instant::now();
    exec.replay_null()?;
    let ingest_seconds = t0.elapsed().as_secs_f64();

    Ok(PacketLogCost {
        bytes_per_packet: bytes / packets as f64,
        packets,
        ingest_seconds,
    })
}

/// One point of Figure 5 or 6.
#[derive(Clone, Debug)]
pub struct LoggingPoint {
    /// Traffic rate in bits/s.
    pub traffic_bps: f64,
    /// Packet size in bytes.
    pub packet_len: i64,
    /// Resulting logging rate in bytes/s.
    pub logging_rate: f64,
}

impl LoggingPoint {
    /// True when the point stays under the SSD's sequential write rate.
    pub fn within_ssd(&self) -> bool {
        self.logging_rate < SSD_RATE
    }
}

/// Figure 5: logging rate for traffic rates from 1 Mbps to 10 Gbps at a
/// fixed 500-byte packet size.
pub fn fig5(cost: &PacketLogCost) -> Vec<LoggingPoint> {
    let rates = [1e6, 1e7, 1e8, 1e9, 2.5e9, 5e9, 1e10];
    rates
        .iter()
        .map(|&bps| LoggingPoint {
            traffic_bps: bps,
            packet_len: 500,
            logging_rate: bps / (8.0 * 500.0) * cost.bytes_per_packet,
        })
        .collect()
}

/// Figure 6: logging rate at a fixed 1 Gbps for packet sizes 500–1500 B.
/// Each point uses its own measured per-packet cost (which is constant —
/// that is the point).
pub fn fig6(costs: &[(i64, PacketLogCost)]) -> Vec<LoggingPoint> {
    costs
        .iter()
        .map(|(len, cost)| LoggingPoint {
            traffic_bps: 1e9,
            packet_len: *len,
            logging_rate: 1e9 / (8.0 * *len as f64) * cost.bytes_per_packet,
        })
        .collect()
}

/// Section 6.5: MapReduce log sizes — the log stores only metadata of the
/// inputs, so it is kilobytes for corpora of megabytes.
pub struct MrStorage {
    /// Total corpus bytes processed.
    pub corpus_bytes: u64,
    /// On-disk bytes of the *metadata* the logging engine actually keeps
    /// (config, file checksums, code version, fences), sealed into layer
    /// files.
    pub log_bytes: u64,
}

/// Measures the MapReduce logging footprint for a corpus scale factor.
pub fn mr_storage(lines_per_file: usize, files: usize) -> Result<MrStorage> {
    let corpus = gen_corpus(&CorpusConfig {
        files,
        lines_per_file,
        ..Default::default()
    });
    let corpus_bytes: u64 = corpus.iter().map(|f| f.bytes).sum();
    let exec = build_job(
        &JobConfig {
            pipeline: Pipeline::Imperative,
            ..Default::default()
        },
        &corpus,
    );
    // The durable log excludes the input *records* (identified by file
    // checksum and re-read at replay time, as long as the files are still
    // in HDFS — Section 6.5): seal everything except lineIn/wordIn.
    let line_in = Sym::new("lineIn");
    let word_in = Sym::new("wordIn");
    let log_bytes = sealed_bytes(&exec.log, |e| {
        e.tuple.table != line_in && e.tuple.table != word_in
    })?;
    Ok(MrStorage {
        corpus_bytes,
        log_bytes,
    })
}

/// Human-readable rate.
pub fn fmt_rate(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e6 {
        format!("{:8.2} MB/s", bytes_per_sec / 1e6)
    } else {
        format!("{:8.2} kB/s", bytes_per_sec / 1e3)
    }
}

/// Human-readable bit rate.
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:6.1} Gbps", bps / 1e9)
    } else {
        format!("{:6.1} Mbps", bps / 1e6)
    }
}

impl fmt::Display for LoggingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {:4} B -> {}  {}",
            fmt_bps(self.traffic_bps),
            self.packet_len,
            fmt_rate(self.logging_rate),
            if self.within_ssd() { "(< SSD 400 MB/s)" } else { "(EXCEEDS SSD)" }
        )
    }
}
