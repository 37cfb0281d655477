//! Seeded scenario generation: topology, workload, and fault schedule.
//!
//! Everything a scenario contains is a pure function of one `u64` seed.
//! The seed is split into three independent child streams with
//! [`DetRng::fork`] — `"topology"`, `"workload"`, `"inject"` — so that
//! masking injections away (the shrinker's move) regenerates the *same*
//! network and the *same* packets with a smaller fault schedule, instead
//! of perturbing every downstream draw.
//!
//! The generated network routes every packet towards a destination host
//! `dst` through per-switch primary rules (priority 5), with a backup
//! route towards a second host `alt` on every switch (priority 1).
//! Faults act on the rule layer: withdrawing a primary rule diverts the
//! affected packets onto the backup path, so a fault produces a
//! *misdelivery* — the same observable failure class as the paper's SDN
//! scenarios — rather than a crash. The good execution is the fault-free
//! baseline; the bad execution is the baseline with the applied
//! injections lowered into its event log.

use std::fmt;

use dp_replay::Execution;
use dp_sdn::{cfg_entry, pkt_in, sdn_program, Topology};
use dp_types::prefix::{cidr, ip};
use dp_types::{DetRng, Error, LogicalTime, NodeId, Result, Tuple};

/// Base time at which the topology and configuration are installed.
pub const T_CONFIG: LogicalTime = 10;
/// Spacing between probe packets; injections land halfway between them.
pub const T_PACKET: LogicalTime = 1_000;
/// Protocol number used for probe packets.
pub const PROTO_TCP: i64 = 6;
/// Probe packet length.
pub const PROBE_LEN: i64 = 512;
/// Rule-id base of per-switch primary rules (towards `dst`).
const RID_PRIMARY: i64 = 100;
/// Rule-id base of per-switch backup rules (towards `alt`).
const RID_BACKUP: i64 = 200;
/// Rule-id base of racing controller updates.
const RID_RACE: i64 = 300;
/// Priority of the racing update (wins over the primary rule).
const PRIO_RACE: i64 = 7;
/// Priority of the primary route.
const PRIO_PRIMARY: i64 = 5;
/// Priority of the backup route.
const PRIO_BACKUP: i64 = 1;

/// One injected fault (or perturbation) in a scenario's schedule.
///
/// Switches are identified by index into the generated topology's
/// `S0..S{n-1}` naming; packets by index into [`SimScenario::packets`].
/// All times are logical and land on half-period boundaries (`j*1000 +
/// 500`), strictly between packet injections, so the schedule is always
/// quiescent at an injection instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Injection {
    /// The primary rule of switch `sw` is withdrawn at `at` and stays
    /// down: later packets through `sw` take the backup route.
    RuleWithdraw {
        /// Target switch index.
        sw: usize,
        /// Withdrawal time.
        at: LogicalTime,
    },
    /// The primary rule of `sw` flaps: down at `down_at`, reinstalled at
    /// `up_at`. Packets in the gap divert; later packets recover.
    RuleRestore {
        /// Target switch index.
        sw: usize,
        /// Withdrawal time.
        down_at: LogicalTime,
        /// Reinstallation time.
        up_at: LogicalTime,
    },
    /// The primary rule of `sw` is installed late — at `until` instead of
    /// [`T_CONFIG`] — modelling a delayed control-plane message. Packets
    /// arriving before `until` see only the backup rule.
    DelayedInstall {
        /// Target switch index.
        sw: usize,
        /// Actual installation time.
        until: LogicalTime,
    },
    /// Two same-time configuration installs arrive in the opposite order
    /// (positions `a` and `b` of the baseline install sequence are
    /// swapped). A reordered control plane must be observably benign:
    /// the installs commute, so deliveries cannot change.
    ReorderInstalls {
        /// First install position.
        a: usize,
        /// Second install position.
        b: usize,
    },
    /// Packet `packet` is delivered to its ingress switch a second time
    /// at `at`. Base-tuple insertion is idempotent, so a duplicate must
    /// be *completely* invisible — the battery checks the provenance
    /// digest is unchanged by the duplicate. The duplicate gets its own
    /// sub-slot (`due + 250`) no other generated event uses: the engine
    /// clock stamps same-instant arrivals distinctly, so even a no-op
    /// sharing an instant with a real event would shift later stamps.
    DupPacket {
        /// Index into the workload.
        packet: usize,
        /// Arrival time of the duplicate.
        at: LogicalTime,
    },
    /// The logging process dies at `cut` (a quiescent boundary) and a
    /// new one carries on — the paper's node-restart fault. What survives
    /// is the durable store: the battery seals the log in sessions split
    /// at the cut, each opening the directory the last one left, and the
    /// recovered stream must be bit-identical to an uninterrupted run's.
    NodeRestart {
        /// Quiescent boundary at which the restart happens.
        cut: LogicalTime,
    },
    /// Two controller apps race to install the same rule id on `sw` at
    /// `at`: one writes a route towards `dst`, the other towards `alt`,
    /// and last-writer-wins. The good execution sees the `dst` write
    /// land second; the bad execution sees the orders flipped — which is
    /// exactly the good/bad pair DiffProv diagnoses.
    RaceInstall {
        /// Target switch index.
        sw: usize,
        /// Arrival time of both writes.
        at: LogicalTime,
    },
}

impl Injection {
    /// Stable short name of the injection kind (battery statistics,
    /// corpus notes).
    pub fn kind(&self) -> &'static str {
        match self {
            Injection::RuleWithdraw { .. } => "rule-withdraw",
            Injection::RuleRestore { .. } => "rule-restore",
            Injection::DelayedInstall { .. } => "delayed-install",
            Injection::ReorderInstalls { .. } => "reorder-installs",
            Injection::DupPacket { .. } => "dup-packet",
            Injection::NodeRestart { .. } => "node-restart",
            Injection::RaceInstall { .. } => "race-install",
        }
    }
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Injection::RuleWithdraw { sw, at } => write!(f, "withdraw primary of S{sw} at {at}"),
            Injection::RuleRestore { sw, down_at, up_at } => {
                write!(f, "flap primary of S{sw}: down {down_at}, up {up_at}")
            }
            Injection::DelayedInstall { sw, until } => {
                write!(f, "delay primary install of S{sw} until {until}")
            }
            Injection::ReorderInstalls { a, b } => write!(f, "swap installs #{a} and #{b}"),
            Injection::DupPacket { packet, at } => write!(f, "duplicate packet #{packet} at {at}"),
            Injection::NodeRestart { cut } => write!(f, "restart (store reopened) at {cut}"),
            Injection::RaceInstall { sw, at } => {
                write!(f, "racing rule installs on S{sw} at {at}")
            }
        }
    }
}

/// One probe packet of the generated workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Packet (flow) id, unique per scenario.
    pub pid: i64,
    /// Source address (arbitrary; all rules match `0.0.0.0/0`).
    pub src: u32,
    /// Ingress switch index.
    pub ingress: usize,
    /// Injection time.
    pub due: LogicalTime,
}

/// A fully generated fault-injection scenario: good/bad executions plus
/// everything the battery and the shrinker need to reason about them.
pub struct SimScenario {
    /// The seed everything was derived from.
    pub seed: u64,
    /// The full drawn injection schedule (before masking).
    pub injections: Vec<Injection>,
    /// Indexes into `injections` that were actually lowered. A masked
    /// index is absent; so is an index whose target switch was already
    /// claimed by an earlier rule-layer injection (first-writer-wins
    /// keeps the lowering coherent).
    pub applied: Vec<usize>,
    /// The fault-free execution.
    pub good: Execution,
    /// The execution with the applied injections lowered into its log.
    pub bad: Execution,
    /// Restart boundaries from applied [`Injection::NodeRestart`]s,
    /// sorted and deduplicated.
    pub restart_cuts: Vec<LogicalTime>,
    /// The workload.
    pub packets: Vec<Packet>,
    /// The generated topology (hosts `dst` and `alt` attached).
    pub topology: Topology,
    /// Switch index hosting `dst`.
    pub dst_switch: usize,
    /// Switch index hosting `alt`.
    pub alt_switch: usize,
}

/// Destination address every probe packet targets.
pub fn probe_dst() -> u32 {
    ip("10.0.0.80")
}

/// Generates the scenario for `seed` with the full injection schedule
/// applied.
pub fn generate(seed: u64) -> Result<SimScenario> {
    generate_masked(seed, None)
}

/// Generates the scenario for `seed`, lowering only the injections whose
/// indexes appear in `keep` (all of them when `None`). Topology, workload,
/// and the drawn schedule are identical for every mask — the property the
/// shrinker rests on. Errs with the SDN program's build error, or with an
/// [`Error::Engine`] naming a host the random topology does not reach.
pub fn generate_masked(seed: u64, keep: Option<&[usize]>) -> Result<SimScenario> {
    let root = DetRng::seed_from_u64(seed);

    // --- Topology stream -------------------------------------------------
    let mut topo_rng = root.fork("topology");
    let n = topo_rng.gen_range_usize(4, 9);
    let extra = topo_rng.gen_range_usize(0, 4);
    let mut topo = Topology::random(&mut topo_rng, "ctl", n, extra);
    let dst_switch = topo_rng.gen_range_usize(0, n);
    let alt_switch = (dst_switch + 1 + topo_rng.gen_range_usize(0, n - 1)) % n;
    topo.host(&sw_name(dst_switch), "dst");
    topo.host(&sw_name(alt_switch), "alt");

    // --- Workload stream -------------------------------------------------
    let mut work_rng = root.fork("workload");
    let k = work_rng.gen_range_usize(2, 6);
    let packets: Vec<Packet> = (0..k)
        .map(|i| Packet {
            pid: i as i64 + 1,
            src: work_rng.next_u32(),
            ingress: work_rng.gen_range_usize(0, n),
            due: (i as LogicalTime + 1) * T_PACKET,
        })
        .collect();

    // --- Injection stream ------------------------------------------------
    let mut inj_rng = root.fork("inject");
    let m = inj_rng.gen_range_usize(1, 7);
    // A half-period boundary: strictly between packets (or before the
    // first / after the last), never colliding with a packet or config
    // event, so the engine is quiescent there.
    let boundary = |rng: &mut DetRng| -> LogicalTime {
        rng.gen_range_u64(0, k as u64 + 1) * T_PACKET + T_PACKET / 2
    };
    let injections: Vec<Injection> = (0..m)
        .map(|_| match inj_rng.gen_range_usize(0, 7) {
            0 => Injection::RuleWithdraw {
                sw: inj_rng.gen_range_usize(0, n),
                at: boundary(&mut inj_rng),
            },
            1 => {
                let sw = inj_rng.gen_range_usize(0, n);
                let a = boundary(&mut inj_rng);
                let b = boundary(&mut inj_rng);
                let (down_at, up_at) = if a < b { (a, b) } else { (b, a + T_PACKET) };
                Injection::RuleRestore { sw, down_at, up_at }
            }
            2 => Injection::DelayedInstall {
                sw: inj_rng.gen_range_usize(0, n),
                until: boundary(&mut inj_rng),
            },
            3 => {
                // Two positions in the 2n-entry baseline install list.
                let a = inj_rng.gen_range_usize(0, 2 * n);
                let b = inj_rng.gen_range_usize(0, 2 * n);
                Injection::ReorderInstalls { a, b }
            }
            4 => {
                let packet = inj_rng.gen_range_usize(0, k);
                let at = packets[packet].due + T_PACKET / 4;
                Injection::DupPacket { packet, at }
            }
            5 => Injection::NodeRestart {
                cut: boundary(&mut inj_rng),
            },
            _ => Injection::RaceInstall {
                sw: inj_rng.gen_range_usize(0, n),
                at: boundary(&mut inj_rng),
            },
        })
        .collect();

    // --- Lowering ---------------------------------------------------------
    let program = sdn_program("ctl")?;
    let any = cidr("0.0.0.0/0");
    let dst = probe_dst();

    // Baseline install list: for each switch, the primary (towards `dst`)
    // then the backup (towards `alt`), all due at T_CONFIG. Entries carry
    // their own due time so a DelayedInstall only moves one of them.
    let route_port = |sw: usize, host: &str| -> Result<i64> {
        let name = sw_name(sw);
        let hop = topo.next_hop(&name, host).ok_or_else(|| {
            Error::Engine(format!(
                "seed {seed}: the random topology does not reach {host} from {name}"
            ))
        })?;
        Ok(topo.port_towards(&name, &hop))
    };
    let mut baseline: Vec<(LogicalTime, Tuple)> = Vec::with_capacity(2 * n);
    for sw in 0..n {
        baseline.push((
            T_CONFIG,
            cfg_entry(
                RID_PRIMARY + sw as i64,
                sw_name(sw),
                PRIO_PRIMARY,
                any,
                any,
                route_port(sw, "dst")?,
            ),
        ));
        baseline.push((
            T_CONFIG,
            cfg_entry(
                RID_BACKUP + sw as i64,
                sw_name(sw),
                PRIO_BACKUP,
                any,
                any,
                route_port(sw, "alt")?,
            ),
        ));
    }

    let applied_idx: Vec<usize> = (0..injections.len())
        .filter(|i| keep.is_none_or(|k| k.contains(i)))
        .collect();

    // First-writer-wins per switch for rule-layer injections, so the
    // lowered schedule never deletes an absent rule or double-installs.
    let mut claimed = std::collections::BTreeSet::new();
    let mut applied = Vec::new();
    let mut bad_baseline = baseline.clone();
    let mut restart_cuts: Vec<LogicalTime> = Vec::new();
    // Extra bad-log events beyond the install list: (due, tuple, delete).
    let mut bad_extra: Vec<(LogicalTime, NodeId, Tuple, bool)> = Vec::new();
    let mut good_extra: Vec<(LogicalTime, NodeId, Tuple, bool)> = Vec::new();
    let ctl = NodeId::new("ctl");
    for &i in &applied_idx {
        match &injections[i] {
            Injection::RuleWithdraw { sw, at } => {
                if !claimed.insert(*sw) {
                    continue;
                }
                let primary = bad_baseline[2 * sw].1.clone();
                bad_extra.push((*at, ctl, primary, true));
            }
            Injection::RuleRestore { sw, down_at, up_at } => {
                if !claimed.insert(*sw) {
                    continue;
                }
                let primary = bad_baseline[2 * sw].1.clone();
                bad_extra.push((*down_at, ctl, primary.clone(), true));
                bad_extra.push((*up_at, ctl, primary, false));
            }
            Injection::DelayedInstall { sw, until } => {
                if !claimed.insert(*sw) {
                    continue;
                }
                bad_baseline[2 * sw].0 = *until;
            }
            Injection::ReorderInstalls { a, b } => {
                bad_baseline.swap(*a, *b);
            }
            Injection::DupPacket { packet, at } => {
                let p = &packets[*packet];
                bad_extra.push((
                    *at,
                    NodeId::new(sw_name(p.ingress)),
                    pkt_in(p.pid, p.src, dst, PROTO_TCP, PROBE_LEN),
                    false,
                ));
            }
            Injection::NodeRestart { cut } => {
                restart_cuts.push(*cut);
            }
            Injection::RaceInstall { sw, at } => {
                if !claimed.insert(*sw) {
                    continue;
                }
                // Two controller apps write the same rule id; the store is
                // last-writer-wins, so the loser's entry is visible only
                // transiently. Good sees the dst-route land second; bad
                // sees the orders flipped.
                let to_dst = cfg_entry(
                    RID_RACE + *sw as i64,
                    sw_name(*sw),
                    PRIO_RACE,
                    any,
                    any,
                    route_port(*sw, "dst")?,
                );
                let to_alt = cfg_entry(
                    RID_RACE + *sw as i64,
                    sw_name(*sw),
                    PRIO_RACE,
                    any,
                    any,
                    route_port(*sw, "alt")?,
                );
                for (log, first, second) in [
                    (&mut good_extra, to_alt.clone(), to_dst.clone()),
                    (&mut bad_extra, to_dst, to_alt),
                ] {
                    log.push((*at, ctl, first.clone(), false));
                    log.push((*at, ctl, first, true));
                    log.push((*at, ctl, second, false));
                }
            }
        }
        applied.push(i);
    }
    restart_cuts.sort_unstable();
    restart_cuts.dedup();

    // --- Logs -------------------------------------------------------------
    let build = |install: &[(LogicalTime, Tuple)],
                 extra: &[(LogicalTime, NodeId, Tuple, bool)]|
     -> Execution {
        let mut exec = Execution::new(std::sync::Arc::clone(&program));
        topo.emit(&mut exec.log, T_CONFIG);
        for (due, entry) in install {
            exec.log.insert(*due, ctl, entry.clone());
        }
        for p in &packets {
            exec.log.insert(
                p.due,
                sw_name(p.ingress).as_str(),
                pkt_in(p.pid, p.src, dst, PROTO_TCP, PROBE_LEN),
            );
        }
        for (due, node, tuple, delete) in extra {
            if *delete {
                exec.log.delete(*due, *node, tuple.clone());
            } else {
                exec.log.insert(*due, *node, tuple.clone());
            }
        }
        exec
    };
    let good = build(&baseline, &good_extra);
    let bad = build(&bad_baseline, &bad_extra);

    Ok(SimScenario {
        seed,
        injections,
        applied,
        good,
        bad,
        restart_cuts,
        packets,
        topology: topo,
        dst_switch,
        alt_switch,
    })
}

/// The canonical switch name for index `i` (matches
/// [`Topology::random`]'s naming).
pub fn sw_name(i: usize) -> String {
    format!("S{i}")
}

impl SimScenario {
    /// The injection kinds actually applied, in schedule order.
    pub fn applied_kinds(&self) -> Vec<&'static str> {
        self.applied
            .iter()
            .map(|&i| self.injections[i].kind())
            .collect()
    }
}
