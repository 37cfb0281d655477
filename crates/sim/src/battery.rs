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
//! When the injections produce a diagnosable misdelivery DiffProv runs on
//! it, once. Whether it aligns the trees is a counted outcome, not an
//! invariant; a typed error out of it is reported as a violation.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use diffprov_core::{DiffProv, QueryEvent};
use dp_provenance::well_formedness_violations;
use dp_replay::{BaseEvent, DurableStore, Execution};
use dp_sdn::deliver_at;
use dp_types::Result;

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
    /// True when the divergence was diagnosable (a misdelivery with a
    /// delivery on both sides) and DiffProv ran.
    pub diagnosed: bool,
    /// True when the diagnosis aligned the trees.
    pub diagnosis_succeeded: bool,
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
    type Deliveries = BTreeMap<i64, BTreeSet<String>>;
    let replayed = |exec: &Execution| -> Result<(Deliveries, Vec<String>)> {
        let r = exec.replay()?;
        let graph_violations = well_formedness_violations(r.graph());
        let mut deliv: BTreeMap<i64, BTreeSet<String>> = BTreeMap::new();
        for v in r.graph().vertices() {
            if matches!(v.kind, dp_provenance::VertexKind::Appear)
                && v.tuple.table.as_str() == "deliver"
            {
                if let Ok(pid) = v.tuple.args[0].as_int() {
                    deliv.entry(pid).or_default().insert(v.node.to_string());
                }
            }
        }
        Ok((deliv, graph_violations))
    };
    let mut sides = Vec::new();
    for (side, exec) in [("good", &sc.good), ("bad", &sc.bad)] {
        match replayed(exec) {
            Ok((deliv, graph_violations)) => {
                for gv in graph_violations {
                    fail(
                        "graph-well-formed",
                        format!("seed {}: {side} graph: {gv}", sc.seed),
                        &mut report,
                    );
                }
                sides.push(deliv);
            }
            Err(e) => {
                fail(
                    "graph-well-formed",
                    format!("seed {}: {side} replay failed: {e}", sc.seed),
                    &mut report,
                );
                sides.push(BTreeMap::new());
            }
        }
    }
    let (good_deliv, bad_deliv) = (sides[0].clone(), sides[1].clone());
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
        if let (Some(good_host), Some(bad_host)) =
            (good_hosts.iter().next(), bad_hosts.iter().next())
        {
            report.diagnosed = true;
            let good_event = QueryEvent::new(
                deliver_at(
                    good_host,
                    packet.pid,
                    packet.src,
                    crate::scenario::probe_dst(),
                    PROTO_TCP,
                    PROBE_LEN,
                ),
                u64::MAX,
            );
            let bad_event = QueryEvent::new(
                deliver_at(
                    bad_host,
                    packet.pid,
                    packet.src,
                    crate::scenario::probe_dst(),
                    PROTO_TCP,
                    PROBE_LEN,
                ),
                u64::MAX,
            );
            match DiffProv::default().diagnose(&sc.good, &good_event, &sc.bad, &bad_event) {
                Ok(r) => report.diagnosis_succeeded = r.succeeded(),
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

/// Convenience: generate and check one seed.
pub fn check_seed(seed: u64) -> Result<BatteryReport> {
    Ok(check_scenario(&generate_masked(seed, None)?))
}

/// One process lifetime of the store at `dir`: opens what is there and
/// seals `events` — the next run of the log — behind it.
fn seal_session(dir: &Path, events: &[BaseEvent]) -> Result<()> {
    DurableStore::open(dir)?.seal_events(events).map(drop)
}
