//! What one run reports, and how it is printed: `workload metric value
//! unit` lines for people, then one JSON object as the last line of
//! standard output.

use crate::json::Json;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// The samples `value` is the median of; empty for a single reading.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            samples: Vec::new(),
        }
    }

    pub fn count(name: &str, value: u64) -> Metric {
        Metric::new(name, value as f64, "count")
    }

    /// The median of `samples`, which are kept.
    pub fn median_of(name: &str, samples: Vec<f64>, unit: &str) -> Metric {
        Metric {
            value: crate::stats::median(&samples),
            samples,
            ..Metric::new(name, 0.0, unit)
        }
    }
}

/// The result of one run of one workload in one phase.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every diagnosis passed its check and every determinism check held.
    pub correct: bool,
    /// Diagnoses attempted (warm-up included) and those failing the check.
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics: end-to-end in the timed phase, per-layer in
    /// the traced phase.
    pub metrics: Vec<Metric>,
    /// Readings printed for context but outside the contract's metric set.
    pub context: Vec<Metric>,
}

impl Outcome {
    /// Prints the lines and the final JSON object. A non-finite value is
    /// a harness bug, so it makes the run incorrect.
    pub fn print(&mut self, workload: &str) {
        for m in self.metrics.iter().chain(&self.context) {
            if !m.value.is_finite() {
                eprintln!("diagbench: {workload} {} is not finite", m.name);
                self.correct = false;
            }
            println!("{workload} {} {} {}", m.name, m.value, m.unit);
            for s in &m.samples {
                println!("{workload} {}.sample {s} {}", m.name, m.unit);
            }
        }
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit.as_str())),
                ]),
            )
        }));
        println!(
            "{}",
            Json::obj([
                ("correct", Json::from(self.correct)),
                ("attempted", Json::from(self.attempted)),
                ("failed", Json::from(self.failed)),
                ("metrics", metrics),
            ])
        );
    }
}

/// CPUs available to this process; printed with every result because the
/// engine's thread default follows it.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// A field of `/proc/self/status` given in kB, as MB (2^20 bytes).
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
