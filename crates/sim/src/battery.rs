//! The invariant battery: everything a generated scenario must satisfy.
//!
//! Each scenario is pushed through the whole stack — engine, provenance
//! recorder, replay, DiffProv — and checked against invariants that hold
//! for *every* seed, not just the hand-built repro scenarios:
//!
//! 1. **Digest determinism** — replaying an execution twice through the
//!    engine, and once through the reference evaluator
//!    (`dp_ndlog::reference`), folds to one and the same provenance
//!    stream digest.
//! 2. **Graph well-formedness** — the recorded temporal provenance graph
//!    obeys the vertex grammar and episode ordering
//!    ([`dp_provenance::well_formedness_violations`]).
//! 3. **Baseline sanity** — the fault-free execution delivers every probe
//!    packet at the `dst` host, and nowhere else.
//! 4. **Duplicate invisibility** — a duplicated packet is absorbed by
//!    idempotent base insertion: dropping the `DupPacket` injections from
//!    the schedule must not change the bad execution's digest.
//! 5. **Durable recovery** — the bad execution sealed into an on-disk
//!    layered store, "killed", and recovered from the directory alone
//!    (reopened, the layers replayed in sequence) folds to exactly the
//!    in-memory stream digest of invariant 1. A `NodeRestart` is a kill
//!    *during* the sealing: the log is sealed in sessions split at the
//!    restart cuts, each through a handle opened on the directory the
//!    last one left behind, so a store continuing a stack it did not
//!    write is part of what has to recover.
//!
//! When the injections make a packet diverge DiffProv runs on it: the good
//! event is its delivery in the fault-free run, the bad event its delivery
//! in the faulty run or — when the faulty run never delivers it — the last
//! hop where it was seen there, as in the paper's §6.7 drop. Whether it
//! aligns the trees is a counted outcome, not an invariant; a typed error
//! out of it is reported as a violation. One more invariant rides on it:
//!
//! 6. **Slice judge** — the diagnosis over the slices of the two logs
//!    equals the diagnosis over the whole logs: change set, rounds,
//!    failure, `verified`, both seeds, both tree sizes and both trees up
//!    to stamp ranks ([`DiffProv::judge`]).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use diffprov_core::{DiffProv, Failure, QueryEvent};
use dp_provenance::well_formedness_violations;
use dp_replay::{BaseEvent, DurableStore, Execution};
use dp_sdn::deliver_at;
use dp_types::{Result, TupleRef};

use crate::scenario::{
    generate_masked, Injection, SimScenario, PROBE_LEN, PROTO_TCP,
};

/// One invariant violation found by the battery.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable invariant name (also recorded in corpus files).
    pub invariant: &'static str,
    /// Human-readable description of what diverged.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// What the battery observed about one scenario.
#[derive(Clone, Debug, Default)]
pub struct BatteryReport {
    /// All violations found (empty means the scenario passed).
    pub violations: Vec<Violation>,
    /// True when good and bad executions delivered differently.
    pub divergent: bool,
    /// True when DiffProv ran on the divergent packet: its good delivery
    /// against its bad delivery, or against its last observed hop when
    /// the bad run never delivers it.
    pub diagnosed: bool,
    /// True when the diagnosis aligned the trees.
    pub diagnosis_succeeded: bool,
    /// True when the sliced diagnosis equalled the whole logs' (invariant
    /// 6).
    pub judge_held: bool,
    /// Why the diagnosis did not align the trees: the name of DiffProv's
    /// [`Failure`] variant (see [`failure_name`]).
    pub failure: Option<&'static str>,
    /// Injection kinds that were actually applied.
    pub kinds: Vec<&'static str>,
}

impl BatteryReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the full battery against one scenario.
pub fn check_scenario(sc: &SimScenario) -> BatteryReport {
    let mut report = BatteryReport {
        kinds: sc.applied_kinds(),
        ..BatteryReport::default()
    };
    let fail = |invariant: &'static str, detail: String, out: &mut BatteryReport| {
        out.violations.push(Violation { invariant, detail });
    };

    // --- 1. Digest determinism -------------------------------------------
    let digests = |exec: &Execution| -> Result<Vec<(String, (u64, u64))>> {
        Ok(vec![
            ("base".to_string(), exec.stream_digest()?),
            ("rerun".to_string(), exec.stream_digest()?),
            ("reference".to_string(), exec.reference_stream_digest()?),
        ])
    };
    let mut side_digest = [0u64; 2];
    for (side_idx, (side, exec)) in [("good", &sc.good), ("bad", &sc.bad)].iter().enumerate() {
        match digests(exec) {
            Ok(all) => {
                let (ref base_label, base) = all[0];
                debug_assert_eq!(base_label, "base");
                side_digest[side_idx] = base.0;
                for (label, got) in &all[1..] {
                    if *got != base {
                        fail(
                            "digest-determinism",
                            format!(
                                "seed {}: {side} stream digest diverges under {label}: \
                                 base {base:?}, got {got:?}",
                                sc.seed
                            ),
                            &mut report,
                        );
                    }
                }
            }
            Err(e) => fail(
                "digest-determinism",
                format!("seed {}: {side} replay failed: {e}", sc.seed),
                &mut report,
            ),
        }
    }

    // --- 2 & 3. Graph well-formedness and deliveries ---------------------
    // Per packet: the hosts that received it, and the last `pktAt` it
    // appeared as — where a packet that is never delivered was last seen.
    type Deliveries = BTreeMap<i64, BTreeSet<String>>;
    type LastHops = BTreeMap<i64, TupleRef>;
    let replayed = |exec: &Execution| -> Result<(Deliveries, LastHops, Vec<String>)> {
        let r = exec.replay()?;
        let graph_violations = well_formedness_violations(r.graph());
        let mut deliv = Deliveries::new();
        let mut last_hop = LastHops::new();
        for v in r.graph().vertices() {
            let table = v.tuple.table.as_str();
            if !matches!(v.kind, dp_provenance::VertexKind::Appear)
                || !matches!(table, "deliver" | "pktAt")
            {
                continue;
            }
            let Ok(pid) = v.tuple.args[0].as_int() else {
                continue;
            };
            if table == "deliver" {
                deliv.entry(pid).or_default().insert(v.node.to_string());
            } else {
                last_hop.insert(pid, TupleRef::new(*v.node, Arc::clone(v.tuple)));
            }
        }
        Ok((deliv, last_hop, graph_violations))
    };
    let sides = [("good", &sc.good), ("bad", &sc.bad)].map(|(side, exec)| match replayed(exec) {
        Ok((deliv, last_hop, graph_violations)) => {
            for gv in graph_violations {
                fail(
                    "graph-well-formed",
                    format!("seed {}: {side} graph: {gv}", sc.seed),
                    &mut report,
                );
            }
            (deliv, last_hop)
        }
        Err(e) => {
            fail(
                "graph-well-formed",
                format!("seed {}: {side} replay failed: {e}", sc.seed),
                &mut report,
            );
            Default::default()
        }
    });
    let [(good_deliv, _), (bad_deliv, bad_last_hop)] = sides;
    for p in &sc.packets {
        let hosts = good_deliv.get(&p.pid).cloned().unwrap_or_default();
        if hosts.iter().map(String::as_str).collect::<Vec<_>>() != ["dst"] {
            fail(
                "good-baseline",
                format!(
                    "seed {}: packet {} delivered at {hosts:?} in the fault-free \
                     execution, expected exactly [\"dst\"]",
                    sc.seed, p.pid
                ),
                &mut report,
            );
        }
    }

    // --- The diagnosis ---------------------------------------------------
    let divergent_pid = sc.packets.iter().find_map(|p| {
        let good = good_deliv.get(&p.pid).cloned().unwrap_or_default();
        let bad = bad_deliv.get(&p.pid).cloned().unwrap_or_default();
        (good != bad).then_some((p, good, bad))
    });
    report.divergent = divergent_pid.is_some();
    if let Some((packet, good_hosts, bad_hosts)) = divergent_pid {
        let delivery = |host: &String| {
            let dst = crate::scenario::probe_dst();
            deliver_at(host, packet.pid, packet.src, dst, PROTO_TCP, PROBE_LEN)
        };
        // A packet the faulty run never delivers is queried at the last
        // hop where it was seen there.
        let bad_tref = match bad_hosts.iter().next() {
            Some(host) => Some(delivery(host)),
            None => bad_last_hop.get(&packet.pid).cloned(),
        };
        if let (Some(good_host), Some(bad_tref)) = (good_hosts.iter().next(), bad_tref) {
            report.diagnosed = true;
            let good_event = QueryEvent::new(delivery(good_host), u64::MAX);
            let bad_event = QueryEvent::new(bad_tref, u64::MAX);
            match DiffProv::default().judge(&sc.good, &good_event, &sc.bad, &bad_event) {
                Ok(judged) => {
                    let r = &judged.report;
                    report.diagnosis_succeeded = r.succeeded();
                    report.failure = r.failure.as_ref().map(failure_name);
                    report.judge_held = judged.disagreements.is_empty();
                    for d in judged.disagreements {
                        fail(
                            "slice-judge",
                            format!("seed {}: the sliced diagnosis differs in {d}", sc.seed),
                            &mut report,
                        );
                    }
                }
                Err(e) => fail(
                    "diagnosis-errored",
                    format!("seed {}: diagnosis errored: {e}", sc.seed),
                    &mut report,
                ),
            }
        }
    }

    // --- 4. Duplicate invisibility ---------------------------------------
    let dup_free: Vec<usize> = sc
        .applied
        .iter()
        .copied()
        .filter(|&i| !matches!(sc.injections[i], Injection::DupPacket { .. }))
        .collect();
    if dup_free.len() != sc.applied.len() {
        let undup = generate_masked(sc.seed, Some(&dup_free));
        match undup.and_then(|undup| undup.bad.stream_digest()) {
            Ok((digest, _)) => {
                if digest != side_digest[1] {
                    fail(
                        "dup-invisible",
                        format!(
                            "seed {}: dropping the duplicate packets changed the bad \
                             digest ({} -> {digest})",
                            sc.seed, side_digest[1]
                        ),
                        &mut report,
                    );
                }
            }
            Err(e) => fail(
                "dup-invisible",
                format!("seed {}: dup-free replay failed: {e}", sc.seed),
                &mut report,
            ),
        }
    }

    // --- 5. Durable recovery ---------------------------------------------
    // The bad log is sealed in sessions split at the restart cuts: at each
    // cut the process dies — its handle is dropped — and the next session
    // opens the directory it left and seals on (no cut, one session). Then
    // "kill" once more: recovery sees only the directory (`scratch` owns
    // it and seals nothing). Its digest must equal the in-memory stream
    // digest from leg 1, which is already held equal to the oracle's there.
    let recovered = DurableStore::temp().and_then(|scratch| {
        let events = sc.bad.log.events();
        let mut rest = &events[..];
        for &cut in &sc.restart_cuts {
            let (session, later) = rest.split_at(rest.partition_point(|e| e.due <= cut));
            seal_session(scratch.dir(), session)?;
            rest = later;
        }
        seal_session(scratch.dir(), rest)?;
        let reopened = DurableStore::open(scratch.dir())?;
        sc.bad.recovered_stream_digest(&reopened)
    });
    match recovered {
        Ok((digest, _)) if digest == side_digest[1] => {}
        Ok((digest, _)) => fail(
            "durable-recovery",
            format!(
                "seed {}: recovered digest {digest} diverges from the in-memory \
                 digest {}",
                sc.seed, side_digest[1]
            ),
            &mut report,
        ),
        Err(e) => fail(
            "durable-recovery",
            format!("seed {}: sealing or recovery failed: {e}", sc.seed),
            &mut report,
        ),
    }

    report
}

/// The stable name of a diagnosis failure's variant, as `repro sim`
/// counts it.
pub fn failure_name(failure: &Failure) -> &'static str {
    match failure {
        Failure::SeedTypeMismatch { .. } => "seed-type-mismatch",
        Failure::ImmutableChange { .. } => "immutable-change",
        Failure::NonInvertible { .. } => "non-invertible",
        Failure::RoundLimit { .. } => "round-limit",
        Failure::NoProgress { .. } => "no-progress",
    }
}

/// Convenience: generate and check one seed.
pub fn check_seed(seed: u64) -> Result<BatteryReport> {
    Ok(check_scenario(&generate_masked(seed, None)?))
}

/// One process lifetime of the store at `dir`: opens what is there and
/// seals `events` — the next run of the log — behind it.
fn seal_session(dir: &Path, events: &[BaseEvent]) -> Result<()> {
    DurableStore::open(dir)?.seal_events(events).map(drop)
}
