//! The storage-cost model for the logging engine (Sections 6.4–6.5).
//!
//! The paper's logging engine "only stores fixed-size information for
//! each packet, i.e., the header and the timestamp", and for MapReduce
//! "records only the metadata of input files, not their contents". This
//! module computes the byte cost of an [`EventLog`] under exactly that
//! encoding, so the Figure 5/6 experiments measure real log sizes rather
//! than back-of-the-envelope arithmetic.

use dp_types::Value;

use crate::log::{BaseEvent, EventLog};

/// Encoded sizes for log records.
///
/// The defaults model a compact binary encoding: one byte of record tag,
/// an 8-byte timestamp, a 2-byte table id, plus per-field payloads. A
/// packet tuple (source/destination addresses and ports, protocol, length)
/// thus costs a fixed ~62 bytes no matter how large the packet was on the
/// wire — the paper's key observation for why logging at the border
/// switches scales (Figure 5) and why the rate *drops* as packets grow at
/// a fixed bit rate (Figure 6).
#[derive(Clone, Copy, Debug)]
pub struct StorageModel {
    /// Per-record fixed overhead (tag + timestamp + table id + node id).
    pub record_overhead: usize,
    /// Cost of an integer field.
    pub int_bytes: usize,
    /// Cost of an IPv4 address field.
    pub ip_bytes: usize,
    /// Cost of a prefix field (address + length).
    pub prefix_bytes: usize,
    /// Cost of a checksum field.
    pub sum_bytes: usize,
    /// Fixed overhead of a string field (length prefix).
    pub str_overhead: usize,
}

impl Default for StorageModel {
    fn default() -> Self {
        StorageModel {
            record_overhead: 13, // 1 tag + 8 timestamp + 2 table + 2 node
            int_bytes: 4,
            ip_bytes: 4,
            prefix_bytes: 5,
            sum_bytes: 8,
            str_overhead: 2,
        }
    }
}

impl StorageModel {
    /// Encoded size of one field.
    pub fn value_bytes(&self, v: &Value) -> usize {
        match v {
            Value::Int(_) => self.int_bytes,
            Value::Bool(_) => 1,
            Value::Str(s) => self.str_overhead + s.as_str().len(),
            Value::Ip(_) => self.ip_bytes,
            Value::Prefix(_) => self.prefix_bytes,
            Value::Sum(_) => self.sum_bytes,
            Value::Time(_) => 8,
        }
    }

    /// Encoded size of one log record.
    pub fn event_bytes(&self, e: &BaseEvent) -> usize {
        self.record_overhead + e.tuple.args.iter().map(|v| self.value_bytes(v)).sum::<usize>()
    }

    /// Total encoded size of a log.
    pub fn log_bytes(&self, log: &EventLog) -> u64 {
        log.events().iter().map(|e| self.event_bytes(e) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::prefix::ip;
    use dp_types::{tuple, Tuple, Value};

    /// A packet tuple as the SDN substrate logs it: src, dst, src port,
    /// dst port, protocol, length.
    fn packet(src: &str, dst: &str) -> Tuple {
        Tuple::new(
            "pktIn",
            vec![
                Value::Ip(ip(src)),
                Value::Ip(ip(dst)),
                Value::Int(12345),
                Value::Int(80),
                Value::Int(6),
                Value::Int(500),
            ],
        )
    }

    #[test]
    fn packet_records_are_fixed_size() {
        let m = StorageModel::default();
        let mut log = EventLog::new();
        log.insert(0, "s1", packet("10.0.0.1", "10.0.0.2"));
        log.insert(1, "s1", packet("192.168.7.9", "4.3.2.1"));
        let a = m.event_bytes(&log.events()[0]);
        let b = m.event_bytes(&log.events()[1]);
        assert_eq!(a, b, "packet log records must be fixed-size");
        // 13 overhead + 2*4 ip + 4*4 int = 37 bytes.
        assert_eq!(a, 37);
        assert_eq!(m.log_bytes(&log), 74);
    }

    #[test]
    fn record_size_is_independent_of_packet_length_field() {
        // The length *field* is logged, not the payload: a 1500-byte packet
        // costs the same as a 64-byte packet.
        let m = StorageModel::default();
        let small = BaseEvent {
            due: 0,
            node: "s1".into(),
            tuple: tuple!("pktIn", 64).into(),
            op: crate::log::BaseOp::Insert,
        };
        let large = BaseEvent {
            due: 0,
            node: "s1".into(),
            tuple: tuple!("pktIn", 1500).into(),
            op: crate::log::BaseOp::Insert,
        };
        assert_eq!(m.event_bytes(&small), m.event_bytes(&large));
    }
}
