//! # dp-netcore — a NetCore-style policy front-end
//!
//! The DiffProv prototype accepts SDN controller programs "written either
//! in native NDlog or in NetCore (part of Pyretic), an imperative
//! language"; NetCore programs are internally converted to NDlog rules and
//! tuples (Section 5 of the paper). This crate implements that front-end
//! for the suite's SDN model: a small policy language with predicates over
//! packet headers, forwarding/drop/mirror actions, if-then-else policies,
//! and parallel composition — compiled per switch into the prioritized
//! `cfgEntry` tuples the [`dp_sdn`] program installs.
//!
//! The compilation follows the classic scheme: a policy becomes an ordered
//! decision list; predicates are normalized to disjunctions of
//! `(srcPrefix, dstPrefix)` conjunctions; each conjunct becomes one flow
//! entry, and if-then-else layers get descending priority bands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dp_sdn::{cfg_entry, DROP_PORT};
use dp_types::{Error, Prefix, Result, Tuple};

/// A predicate over packet headers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pred {
    /// Matches every packet.
    Any,
    /// Matches no packet.
    None,
    /// Source address within a prefix.
    SrcIn(Prefix),
    /// Destination address within a prefix.
    DstIn(Prefix),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// `self && other`.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// `self || other`.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }
}

/// One `(src, dst)` conjunction — the shape a flow entry can match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conjunct {
    /// Source prefix.
    pub src: Prefix,
    /// Destination prefix.
    pub dst: Prefix,
}

impl Conjunct {
    fn any() -> Self {
        Conjunct {
            src: Prefix::any(),
            dst: Prefix::any(),
        }
    }

    /// Intersects two conjuncts; `None` when they are disjoint.
    fn meet(self, other: Conjunct) -> Option<Conjunct> {
        let src = meet_prefix(self.src, other.src)?;
        let dst = meet_prefix(self.dst, other.dst)?;
        Some(Conjunct { src, dst })
    }
}

/// The intersection of two prefixes, which for prefixes is always the more
/// specific one (or nothing, when they are disjoint).
fn meet_prefix(a: Prefix, b: Prefix) -> Option<Prefix> {
    if a.covers(&b) {
        Some(b)
    } else if b.covers(&a) {
        Some(a)
    } else {
        None
    }
}

/// Normalizes a predicate into a disjunction of conjuncts (DNF).
pub fn normalize(pred: &Pred) -> Vec<Conjunct> {
    match pred {
        Pred::Any => vec![Conjunct::any()],
        Pred::None => vec![],
        Pred::SrcIn(p) => vec![Conjunct {
            src: *p,
            dst: Prefix::any(),
        }],
        Pred::DstIn(p) => vec![Conjunct {
            src: Prefix::any(),
            dst: *p,
        }],
        Pred::Or(a, b) => {
            let mut out = normalize(a);
            out.extend(normalize(b));
            out
        }
        Pred::And(a, b) => {
            let mut out = Vec::new();
            for ca in normalize(a) {
                for cb in normalize(b) {
                    if let Some(c) = ca.meet(cb) {
                        out.push(c);
                    }
                }
            }
            out
        }
    }
}

/// A forwarding decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send out of a port.
    Forward(i64),
    /// Drop the packet (ACL deny).
    Drop,
    /// Send out of several ports (mirroring / multicast).
    Multi(Vec<i64>),
}

impl Action {
    fn ports(&self) -> Vec<i64> {
        match self {
            Action::Forward(p) => vec![*p],
            Action::Drop => vec![DROP_PORT],
            Action::Multi(ps) => ps.clone(),
        }
    }
}

/// A policy for one switch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Packets matching the predicate get the action; others fall through
    /// to nothing.
    Filter(Pred, Action),
    /// If-then-else: the classic NetCore restriction operator.
    IfElse(Pred, Box<Policy>, Box<Policy>),
    /// Parallel composition: all branches apply (e.g. forward + mirror).
    Union(Vec<Policy>),
}

impl Policy {
    /// Convenience: `if pred { then } else { other }`.
    pub fn if_else(pred: Pred, then: Policy, other: Policy) -> Policy {
        Policy::IfElse(pred, Box::new(then), Box::new(other))
    }
}

/// A compiled flow specification (before tuple encoding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Priority (higher wins).
    pub prio: i64,
    /// Match conjunct.
    pub m: Conjunct,
    /// Output port (or [`DROP_PORT`]).
    pub port: i64,
}

/// Compiles a policy into flow specifications.
///
/// Priorities are allocated in bands: an `IfElse` places its *then* branch
/// one band above its *else* branch, so the OpenFlow "highest priority
/// wins" semantics implements the restriction. Returns an error when the
/// policy nests deeper than the available priority space.
pub fn compile(policy: &Policy) -> Result<Vec<FlowSpec>> {
    let mut out = Vec::new();
    compile_into(policy, Conjunct::any(), 1, &mut out)?;
    Ok(out)
}

const MAX_PRIO: i64 = 1 << 20;

fn compile_into(
    policy: &Policy,
    scope: Conjunct,
    prio: i64,
    out: &mut Vec<FlowSpec>,
) -> Result<i64> {
    if prio > MAX_PRIO {
        return Err(Error::Engine("policy nests too deeply".into()));
    }
    match policy {
        Policy::Filter(pred, action) => {
            for c in normalize(pred) {
                let Some(m) = c.meet(scope) else { continue };
                for port in action.ports() {
                    out.push(FlowSpec { prio, m, port });
                }
            }
            Ok(prio)
        }
        Policy::Union(branches) => {
            let mut top = prio;
            for b in branches {
                top = top.max(compile_into(b, scope, prio, out)?);
            }
            Ok(top)
        }
        Policy::IfElse(pred, then, other) => {
            // Compile the else branch first (lower band), then the then
            // branch restricted to the predicate, one band above it.
            let else_top = compile_into(other, scope, prio, out)?;
            let then_prio = else_top + 1;
            let mut top = then_prio;
            for c in normalize(pred) {
                let Some(m) = c.meet(scope) else { continue };
                top = top.max(compile_into(then, m, then_prio, out)?);
            }
            Ok(top)
        }
    }
}

/// Encodes compiled flow specifications as `cfgEntry` tuples for a switch,
/// assigning rule ids starting at `first_rid`.
pub fn to_cfg_entries(sw: &str, first_rid: i64, specs: &[FlowSpec]) -> Vec<Tuple> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| cfg_entry(first_rid + i as i64, sw, s.prio, s.m.src, s.m.dst, s.port))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::prefix::{cidr, ip};

    fn matches(specs: &[FlowSpec], src: u32, dst: u32) -> Vec<i64> {
        // Emulates the switch: all best-priority matching entries fire.
        let best = specs
            .iter()
            .filter(|s| s.m.src.contains(src) && s.m.dst.contains(dst))
            .map(|s| s.prio)
            .max();
        match best {
            None => vec![],
            Some(b) => specs
                .iter()
                .filter(|s| s.prio == b && s.m.src.contains(src) && s.m.dst.contains(dst))
                .map(|s| s.port)
                .collect(),
        }
    }

    #[test]
    fn normalize_handles_dnf() {
        let p = Pred::SrcIn(cidr("10.0.0.0/8"))
            .and(Pred::DstIn(cidr("10.1.0.0/16")))
            .or(Pred::SrcIn(cidr("11.0.0.0/8")));
        let cs = normalize(&p);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].src, cidr("10.0.0.0/8"));
        assert_eq!(cs[0].dst, cidr("10.1.0.0/16"));
        assert_eq!(cs[1].src, cidr("11.0.0.0/8"));
    }

    #[test]
    fn conjunction_of_disjoint_prefixes_is_empty() {
        let p = Pred::SrcIn(cidr("10.0.0.0/8")).and(Pred::SrcIn(cidr("11.0.0.0/8")));
        assert!(normalize(&p).is_empty());
        let p = Pred::SrcIn(cidr("10.0.0.0/8")).and(Pred::SrcIn(cidr("10.1.0.0/16")));
        let cs = normalize(&p);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].src, cidr("10.1.0.0/16"));
    }

    #[test]
    fn if_else_layers_priorities() {
        // The SDN1 policy: untrusted subnets go to port 6, the rest to 3.
        let policy = Policy::if_else(
            Pred::SrcIn(cidr("4.3.2.0/23")),
            Policy::Filter(Pred::Any, Action::Forward(6)),
            Policy::Filter(Pred::Any, Action::Forward(3)),
        );
        let specs = compile(&policy).unwrap();
        assert_eq!(matches(&specs, ip("4.3.2.1"), 0), vec![6]);
        assert_eq!(matches(&specs, ip("4.3.3.1"), 0), vec![6]);
        assert_eq!(matches(&specs, ip("9.9.9.9"), 0), vec![3]);
    }

    #[test]
    fn union_mirrors_traffic() {
        // The S6 policy of Figure 1: deliver to web1 and mirror to DPI.
        let policy = Policy::Union(vec![
            Policy::Filter(Pred::Any, Action::Forward(2)),
            Policy::Filter(Pred::Any, Action::Forward(3)),
        ]);
        let specs = compile(&policy).unwrap();
        let mut got = matches(&specs, 0, 0);
        got.sort();
        assert_eq!(got, vec![2, 3]);
        // Multi-port action compiles the same way.
        let multi = Policy::Filter(Pred::Any, Action::Multi(vec![2, 3]));
        let mut got = matches(&compile(&multi).unwrap(), 0, 0);
        got.sort();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn nested_if_else_composes() {
        // if dst in A { drop } else if src in B { fwd 1 } else { fwd 2 }
        let policy = Policy::if_else(
            Pred::DstIn(cidr("66.0.0.0/8")),
            Policy::Filter(Pred::Any, Action::Drop),
            Policy::if_else(
                Pred::SrcIn(cidr("10.0.0.0/8")),
                Policy::Filter(Pred::Any, Action::Forward(1)),
                Policy::Filter(Pred::Any, Action::Forward(2)),
            ),
        );
        let specs = compile(&policy).unwrap();
        assert_eq!(matches(&specs, ip("10.1.1.1"), ip("66.1.1.1")), vec![DROP_PORT]);
        assert_eq!(matches(&specs, ip("10.1.1.1"), ip("8.8.8.8")), vec![1]);
        assert_eq!(matches(&specs, ip("99.1.1.1"), ip("8.8.8.8")), vec![2]);
    }

    #[test]
    fn to_cfg_entries_assigns_rule_ids() {
        let policy = Policy::Filter(Pred::Any, Action::Forward(1));
        let specs = compile(&policy).unwrap();
        let tuples = to_cfg_entries("S1", 100, &specs);
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].table.as_str(), "cfgEntry");
        assert_eq!(tuples[0].args[0], dp_types::Value::Int(100));
        assert_eq!(tuples[0].args[1], dp_types::Value::str("S1"));
    }

    /// End-to-end: the SDN1 scenario expressed as NetCore policies behaves
    /// identically to the hand-written configuration.
    #[test]
    fn compiled_policies_drive_the_sdn_model() {
        use dp_replay::Execution;
        use dp_sdn::{deliver_at, pkt_in, sdn_program, Topology};
        use dp_types::NodeId;

        let mut topo = Topology::new("ctl");
        topo.switches(&["S1", "S2"]);
        topo.link("S1", "S2");
        let p_web = topo.host("S2", "web");
        let p_dpi = topo.host("S2", "dpi");

        let program = sdn_program("ctl").unwrap();
        let mut exec = Execution::new(program);
        topo.emit(&mut exec.log, 10);

        // S1: everything to S2. S2: deliver + mirror.
        let s1 = Policy::Filter(Pred::Any, Action::Forward(topo.port_towards("S1", "S2")));
        let s2 = Policy::Union(vec![
            Policy::Filter(Pred::Any, Action::Forward(p_web)),
            Policy::Filter(Pred::Any, Action::Forward(p_dpi)),
        ]);
        let ctl = NodeId::new("ctl");
        for t in to_cfg_entries("S1", 100, &compile(&s1).unwrap()) {
            exec.log.insert(10, ctl, t);
        }
        for t in to_cfg_entries("S2", 200, &compile(&s2).unwrap()) {
            exec.log.insert(10, ctl, t);
        }
        let src = ip("1.2.3.4");
        let dst = ip("5.6.7.8");
        exec.log.insert(100, "S1", pkt_in(1, src, dst, 6, 100));
        let r = exec.replay().unwrap();
        let web = deliver_at("web", 1, src, dst, 6, 100);
        let dpi = deliver_at("dpi", 1, src, dst, 6, 100);
        assert!(r.exists(&web.node, &web.tuple));
        assert!(r.exists(&dpi.node, &dpi.tuple));
    }
}
