//! The four campus workloads: their inputs, set-up, the timed unit (one
//! full diagnosis through the public API) and its correctness check.

use std::sync::Arc;

use diffprov_core::{DiffProv, Report};
use dp_replay::{DurableStore, Execution, ProvBackend};
use dp_sdn::{campus, Campus, CampusConfig};
use dp_types::{Result, Value};

use crate::spans::Spans;

/// Base events per durable checkpoint on `campus_durable`.
const CHECKPOINT_EVERY: usize = 8192;

/// One workload. Table sizes are fixed: a result is only comparable with
/// another taken at the same sizes. Why each exists is in the README and
/// in `BENCHMARK.json`.
pub struct Workload {
    pub name: &'static str,
    bulk_entries_per_router: usize,
    background_packets: usize,
    update_churn_rounds: usize,
    /// Provenance backend pinned on both executions; `None` leaves the
    /// engine's default in place so a change of default shows as a number.
    backend: Option<ProvBackend>,
    /// The timed unit starts from a store directory instead of the
    /// in-memory log.
    pub durable: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "campus_tables",
        bulk_entries_per_router: 418,
        background_packets: 400,
        update_churn_rounds: 0,
        backend: None,
        durable: false,
    },
    Workload {
        name: "campus_traffic",
        bulk_entries_per_router: 10,
        background_packets: 12_000,
        update_churn_rounds: 0,
        backend: None,
        durable: false,
    },
    Workload {
        name: "campus_churn_annot",
        bulk_entries_per_router: 100,
        background_packets: 400,
        update_churn_rounds: 4,
        backend: Some(ProvBackend::Annot),
        durable: false,
    },
    Workload {
        name: "campus_durable",
        bulk_entries_per_router: 418,
        background_packets: 400,
        update_churn_rounds: 0,
        backend: None,
        durable: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The generated inputs. `smoke` shrinks tables and traffic so the
    /// harness itself can be tested in seconds; smoke numbers mean nothing.
    fn config(&self, seed: u64, smoke: bool) -> CampusConfig {
        CampusConfig {
            seed,
            bulk_entries_per_router: if smoke {
                2
            } else {
                self.bulk_entries_per_router
            },
            background_packets: if smoke { 60 } else { self.background_packets },
            update_churn_rounds: self.update_churn_rounds,
            ..CampusConfig::default()
        }
    }

    /// Set-up, process start to scenario ready: builds the campus and, on
    /// the durable workload, spills its log into a fresh store directory.
    pub fn setup(&self, seed: u64, smoke: bool, mut spans: Option<&mut Spans>) -> Result<Prepared> {
        let cfg = self.config(seed, smoke);
        let mut campus = call(&mut spans, "sdn.build", || campus(&cfg));
        if let Some(backend) = self.backend {
            campus.scenario.good_exec.provenance_backend = backend;
            campus.scenario.bad_exec.provenance_backend = backend;
        }
        let store = if self.durable {
            let exec = &campus.scenario.bad_exec;
            Some(call(&mut spans, "replay.layers.spill", || {
                exec.spill_temp(CHECKPOINT_EVERY)
            })?)
        } else {
            None
        };
        Ok(Prepared { campus, store })
    }
}

/// Runs `f`, inside a span when a recorder is given. The timed phase
/// passes none: end-to-end numbers are measured with tracing off.
fn call<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.span(name, |_| f()).0,
        None => f(),
    }
}

/// A workload after set-up.
pub struct Prepared {
    pub campus: Campus,
    /// The spilled store and the crash-free reference `(digest, count)`
    /// of the provenance stream (durable workload only).
    pub store: Option<(DurableStore, (u64, u64))>,
}

/// The result of one timed unit. On the durable workload it keeps the
/// opened store alive, so the caller stops the clock at the answer and
/// the store's drop is not part of the diagnosis.
pub struct Diagnosed {
    pub report: Result<Report>,
    _opened: Option<DurableStore>,
}

impl Prepared {
    /// The timed unit: one full diagnosis, query to verified Δ. On the
    /// durable workload it starts from the store directory — open (eager
    /// checksum verify), load the log, rebuild the execution from disk
    /// alone, then diagnose.
    pub fn diagnose(&self, mut spans: Option<&mut Spans>) -> Diagnosed {
        let s = &self.campus.scenario;
        let Some((store, _)) = &self.store else {
            let report = call(&mut spans, "diag.diagnose", || s.diagnose());
            return Diagnosed {
                report,
                _opened: None,
            };
        };
        let opened = match call(&mut spans, "replay.layers.open", || {
            DurableStore::open(store.dir())
        }) {
            Ok(opened) => opened,
            Err(e) => {
                return Diagnosed {
                    report: Err(e),
                    _opened: None,
                }
            }
        };
        let mut exec = Execution::new(Arc::clone(&s.bad_exec.program));
        exec.log = call(&mut spans, "replay.layers.load_log", || opened.load_log());
        let report = call(&mut spans, "diag.diagnose", || {
            DiffProv::default().diagnose(&exec, &s.good_event, &exec, &s.bad_event)
        });
        Diagnosed {
            report,
            _opened: Some(opened),
        }
    }
}

/// Checks every diagnosis and counts failures against attempts.
#[derive(Default)]
pub struct Checker {
    tree_sizes: Option<(usize, usize)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// True when the diagnosis is correct: it succeeded, verified, took
    /// one round, Δ has at most two changes and names the misconfigured
    /// entry (rule id 2 on `oz4`), and both trees have the sizes the first
    /// repetition saw. A failure is reported on stderr with its reason.
    pub fn check(&mut self, report: &Result<Report>) -> bool {
        self.attempted += 1;
        let verdict = report
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|r| self.judge(r));
        if let Err(why) = &verdict {
            self.failed += 1;
            eprintln!(
                "diagbench: diagnosis {} failed the check: {why}",
                self.attempted
            );
        }
        verdict.is_ok()
    }

    fn judge(&mut self, r: &Report) -> std::result::Result<(), String> {
        if let Some(f) = &r.failure {
            return Err(format!("DiffProv failed: {f}"));
        }
        if !r.verified {
            return Err("Δ was not verified".into());
        }
        if r.rounds.len() != 1 {
            return Err(format!("{} rounds, expected 1", r.rounds.len()));
        }
        if r.delta.len() > 2 {
            return Err(format!(
                "Δ has {} changes, expected at most 2",
                r.delta.len()
            ));
        }
        let names_fault = r.delta.iter().filter_map(|c| c.before.as_ref()).any(|b| {
            b.args.first() == Some(&Value::Int(2)) && b.args.get(1) == Some(&Value::str("oz4"))
        });
        if !names_fault {
            return Err("Δ does not name rule id 2 on oz4".into());
        }
        let sizes = (r.good_tree_size, r.bad_tree_size);
        match self.tree_sizes {
            None => self.tree_sizes = Some(sizes),
            Some(first) if first != sizes => {
                return Err(format!(
                    "tree sizes {sizes:?} differ from the first repetition's {first:?}"
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }
}
