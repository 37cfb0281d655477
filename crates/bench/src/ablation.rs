//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Butterfly effect vs. path length** — quantifies Section 2.5: the
//!    same one-entry fault, planted at the first hop of increasingly long
//!    forwarding chains. The plain tree diff grows linearly with the
//!    divergent path; DiffProv's answer stays at one tuple.
//! 2. **Noise insensitivity** — scales the campus network's forwarding
//!    tables and background traffic; the change set stays fixed because
//!    provenance only follows causally related state.

use std::time::{Duration, Instant};

use diffprov_core::{QueryEvent, Scenario};
use dp_replay::Execution;
use dp_sdn::{campus, cfg_entry, deliver_at, pkt_in, sdn_program, CampusConfig, Topology};
use dp_types::prefix::{cidr, ip};
use dp_types::{NodeId, Result};

/// One row of the butterfly-effect ablation.
#[derive(Clone, Debug)]
pub struct ButterflyRow {
    /// Number of switches after the divergence point.
    pub hops: usize,
    /// Good-tree vertexes.
    pub good: usize,
    /// Bad-tree vertexes.
    pub bad: usize,
    /// Plain-diff vertexes.
    pub plain_diff: usize,
    /// DiffProv's answer size.
    pub diffprov: usize,
}

/// Builds an SDN1-style scenario where the good and bad paths each run
/// through `hops` dedicated switches after the faulty hop.
pub fn butterfly_scenario(hops: usize) -> Scenario {
    assert!(hops >= 1);
    let mut topo = Topology::new("ctl");
    topo.switch("S1");
    // Two disjoint chains: G1..Gn -> web1, B1..Bn -> web2.
    for i in 1..=hops {
        topo.switch(&format!("G{i}"));
        topo.switch(&format!("B{i}"));
    }
    topo.link("S1", "G1");
    topo.link("S1", "B1");
    for i in 1..hops {
        let (ga, gb) = (format!("G{i}"), format!("G{}", i + 1));
        topo.link(&ga, &gb);
        let (ba, bb) = (format!("B{i}"), format!("B{}", i + 1));
        topo.link(&ba, &bb);
    }
    let _p_web1 = topo.host(&format!("G{hops}"), "web1");
    let _p_web2 = topo.host(&format!("B{hops}"), "web2");

    let program = sdn_program("ctl").expect("program builds");
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, 10);
    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    let mut rid = 100;
    let mut cfg = |exec: &mut Execution, sw: &str, prio, sm, port| {
        exec.log
            .insert(10, ctl, cfg_entry(rid, sw, prio, sm, any, port));
        rid += 1;
    };
    // The fault at S1: the specific rule towards the good chain is /24
    // instead of /23; the fallback goes down the bad chain.
    cfg(&mut exec, "S1", 10, cidr("4.3.2.0/24"), topo.port_towards("S1", "G1"));
    cfg(&mut exec, "S1", 1, any, topo.port_towards("S1", "B1"));
    // Both chains simply forward onward.
    for i in 1..=hops {
        let g = format!("G{i}");
        let g_next = if i == hops { "web1".to_string() } else { format!("G{}", i + 1) };
        let p = topo.port_towards(&g, &g_next);
        cfg(&mut exec, &g, 1, any, p);
        let b = format!("B{i}");
        let b_next = if i == hops { "web2".to_string() } else { format!("B{}", i + 1) };
        let p = topo.port_towards(&b, &b_next);
        cfg(&mut exec, &b, 1, any, p);
    }
    let dst = ip("10.0.0.80");
    exec.log.insert(1_000, "S1", pkt_in(1, ip("4.3.2.1"), dst, 6, 512));
    exec.log.insert(2_000, "S1", pkt_in(2, ip("4.3.3.1"), dst, 6, 512));
    Scenario {
        name: "butterfly",
        description: "one faulty entry, increasingly long divergent paths",
        good_event: QueryEvent::new(deliver_at("web1", 1, ip("4.3.2.1"), dst, 6, 512), u64::MAX),
        bad_event: QueryEvent::new(deliver_at("web2", 2, ip("4.3.3.1"), dst, 6, 512), u64::MAX),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// Runs the butterfly ablation for the given chain lengths.
pub fn butterfly(hop_counts: &[usize]) -> Result<Vec<ButterflyRow>> {
    let mut out = Vec::new();
    for &hops in hop_counts {
        let s = butterfly_scenario(hops);
        let row = crate::table1::measure(&s)?;
        out.push(ButterflyRow {
            hops,
            good: row.good,
            bad: row.bad,
            plain_diff: row.plain_diff,
            diffprov: row.diffprov_total(),
        });
    }
    Ok(out)
}

/// One row of the noise-insensitivity ablation.
#[derive(Clone, Debug)]
pub struct NoiseRow {
    /// Configured entries in the campus network.
    pub entries: usize,
    /// Background packets streamed.
    pub background: usize,
    /// DiffProv's change-set size (must stay constant).
    pub delta: usize,
    /// Whether the misconfigured entry was named.
    pub names_root_cause: bool,
    /// Query turnaround.
    pub elapsed: Duration,
}

/// Scales the campus network's tables and traffic; the diagnosis must not
/// change.
pub fn noise(scales: &[(usize, usize)]) -> Result<Vec<NoiseRow>> {
    let mut out = Vec::new();
    for &(bulk, background) in scales {
        let campus = campus(&CampusConfig {
            bulk_entries_per_router: bulk,
            background_packets: background,
            ..Default::default()
        });
        let t = Instant::now();
        let report = campus.scenario.diagnose()?;
        let elapsed = t.elapsed();
        let names_root_cause = report.delta.iter().any(|c| {
            c.before
                .as_ref()
                .map(|b| b.args.first() == Some(&dp_types::Value::Int(2)))
                == Some(true)
        });
        out.push(NoiseRow {
            entries: campus.entry_count,
            background,
            delta: report.delta.len(),
            names_root_cause,
            elapsed,
        });
    }
    Ok(out)
}
