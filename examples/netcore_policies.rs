//! Policy front-end walkthrough: writing the controller program in a
//! NetCore-style language instead of raw flow entries.
//!
//! ```text
//! cargo run --example netcore_policies
//! ```
//!
//! We express Figure 1's intent as composable policies — "if the source is
//! in the untrusted subnet, go to the DPI path, otherwise to web2; at S6,
//! deliver AND mirror" — compile them to prioritized flow configuration,
//! and run a packet through the network.

use std::sync::Arc;

use diffprov::netcore::{compile, to_cfg_entries, Action, Policy, Pred};
use diffprov::replay::Execution;
use diffprov::sdn::{deliver_at, pkt_in, sdn_program, Topology};
use diffprov::types::prefix::{cidr, ip};
use diffprov::types::NodeId;

fn main() {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S1", "S2", "S6"]);
    topo.link("S1", "S2");
    topo.link("S2", "S6");
    let p_web1 = topo.host("S6", "web1");
    let p_dpi = topo.host("S6", "dpi");
    let p_web2 = topo.host("S2", "web2");

    // The operator's intent, as policies.
    let s1 = Policy::Filter(Pred::Any, Action::Forward(topo.port_towards("S1", "S2")));
    let s2 = Policy::if_else(
        Pred::SrcIn(cidr("4.3.2.0/23")), // the *correct* subnet this time
        Policy::Filter(Pred::Any, Action::Forward(topo.port_towards("S2", "S6"))),
        Policy::Filter(Pred::Any, Action::Forward(p_web2)),
    );
    let s6 = Policy::Union(vec![
        Policy::Filter(Pred::Any, Action::Forward(p_web1)),
        Policy::Filter(Pred::Any, Action::Forward(p_dpi)),
    ]);

    let program = sdn_program("ctl").expect("program builds");
    let mut exec = Execution::new(Arc::clone(&program));
    topo.emit(&mut exec.log, 10);
    let ctl = NodeId::new("ctl");
    for (sw, rid, policy) in [("S1", 100, &s1), ("S2", 200, &s2), ("S6", 600, &s6)] {
        let specs = compile(policy).expect("policy compiles");
        println!("{sw}: {} flow entries", specs.len());
        for spec in &specs {
            println!("   prio {:>2}  src {:<16} dst {:<12} -> port {}",
                spec.prio, spec.m.src.to_string(), spec.m.dst.to_string(), spec.port);
        }
        for t in to_cfg_entries(sw, rid, &specs) {
            exec.log.insert(10, ctl, t);
        }
    }

    // A request from inside the untrusted subnet goes to web1 AND the DPI
    // mirror; an outside request goes to web2.
    let dst = ip("10.0.0.80");
    exec.log.insert(100, "S1", pkt_in(1, ip("4.3.3.1"), dst, 6, 512));
    exec.log.insert(200, "S1", pkt_in(2, ip("9.9.9.9"), dst, 6, 512));
    let r = exec.replay().expect("replay");

    for (host, pid, src) in [
        ("web1", 1, "4.3.3.1"),
        ("dpi", 1, "4.3.3.1"),
        ("web2", 2, "9.9.9.9"),
    ] {
        let ev = deliver_at(host, pid, ip(src), dst, 6, 512);
        assert!(r.exists(&ev.node, &ev.tuple), "expected delivery at {host}");
        println!("packet {pid} (src {src}) delivered at {host}");
    }
    println!("\nwith the /23 written correctly, the untrusted request is mirrored into DPI.");
}
