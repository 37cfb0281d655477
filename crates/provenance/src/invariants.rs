//! Structural well-formedness checks for temporal provenance graphs.
//!
//! The temporal provenance graph has a strict vertex grammar (Section 3.2
//! of the paper): EXIST vertexes are justified by exactly one APPEAR,
//! every APPEAR by exactly one INSERT or DERIVE, DERIVE children are the
//! EXIST intervals of the body tuples, DISAPPEAR children are negative
//! events, and the leaf kinds carry no children at all. Episodes of one
//! tuple never overlap and march forward in time, and each episode's
//! EXIST vertex agrees with the episode record about the interval end.
//!
//! These rules used to live only inside the randomized test suite; the
//! simulation harness (`dp-sim`) checks them against every generated
//! scenario too, so they are exported here as a reusable checker. The
//! checker *collects* violations instead of panicking — a fuzzing driver
//! wants to report and shrink, not die on the first bad vertex.

use std::collections::BTreeMap;

use dp_types::TupleRef;

use crate::graph::{Episode, ProvGraph, VertexId, VertexKind};
use crate::tree::ProvTree;

/// Checks every structural invariant of `g`, returning a human-readable
/// description of each violation (empty means the graph is well-formed).
pub fn well_formedness_violations(g: &ProvGraph) -> Vec<String> {
    let mut out = Vec::new();
    let in_range = |c: VertexId| (c as usize) < g.len();
    for (i, v) in g.vertices().enumerate() {
        for &c in v.children {
            if !in_range(c) {
                out.push(format!("vertex {i} ({v}) has out-of-range child {c}"));
            }
        }
        if !v.children.iter().all(|&c| in_range(c)) {
            continue; // Child-kind checks below would index out of range.
        }
        match &v.kind {
            VertexKind::Exist { .. } => {
                if v.children.len() != 1 {
                    out.push(format!(
                        "EXIST vertex {i} ({v}) has {} children, expected 1",
                        v.children.len()
                    ));
                } else if !matches!(g.vertex(v.children[0]).kind, VertexKind::Appear) {
                    out.push(format!(
                        "EXIST vertex {i} ({v}) child is {}, expected APPEAR",
                        g.vertex(v.children[0])
                    ));
                }
            }
            VertexKind::Appear => {
                if v.children.len() != 1 {
                    out.push(format!(
                        "APPEAR vertex {i} ({v}) has {} children, expected 1",
                        v.children.len()
                    ));
                } else if !matches!(
                    g.vertex(v.children[0]).kind,
                    VertexKind::Insert | VertexKind::Derive { .. }
                ) {
                    out.push(format!(
                        "APPEAR vertex {i} ({v}) child is {}, expected INSERT or DERIVE",
                        g.vertex(v.children[0])
                    ));
                }
            }
            VertexKind::Derive { .. } => {
                for &c in v.children {
                    if !matches!(g.vertex(c).kind, VertexKind::Exist { .. }) {
                        out.push(format!(
                            "DERIVE vertex {i} ({v}) child {} is not an EXIST",
                            g.vertex(c)
                        ));
                    }
                }
            }
            VertexKind::Disappear => {
                for &c in v.children {
                    if !matches!(
                        g.vertex(c).kind,
                        VertexKind::Delete | VertexKind::Underive { .. }
                    ) {
                        out.push(format!(
                            "DISAPPEAR vertex {i} ({v}) child {} is not DELETE/UNDERIVE",
                            g.vertex(c)
                        ));
                    }
                }
            }
            VertexKind::Insert | VertexKind::Delete | VertexKind::Underive { .. } => {
                if !v.children.is_empty() {
                    out.push(format!(
                        "leaf vertex {i} ({v}) has {} children, expected none",
                        v.children.len()
                    ));
                }
            }
        }
    }
    // Episode structure, per located tuple: the graph keeps its episodes
    // in APPEAR order and finds them by key, so they are grouped by tuple
    // here, once.
    let mut by_tuple: BTreeMap<TupleRef, Vec<Episode>> = BTreeMap::new();
    for (tref, episode) in g.all_episodes() {
        by_tuple.entry(tref).or_default().push(episode);
    }
    for (tref, eps) in &by_tuple {
        for w in eps.windows(2) {
            match w[0].end {
                Some(end) if end <= w[1].start => {}
                Some(end) => out.push(format!(
                    "episodes of {tref} overlap: [{}, {end}) then [{}, ..)",
                    w[0].start, w[1].start
                )),
                None => out.push(format!(
                    "non-final episode of {tref} starting at {} is open",
                    w[0].start
                )),
            }
        }
        for ep in eps {
            if let Some(end) = ep.end {
                if ep.start > end {
                    out.push(format!(
                        "episode of {tref} runs backwards: [{}, {end})",
                        ep.start
                    ));
                }
            }
            match &g.vertex(ep.exist).kind {
                VertexKind::Exist { end } => {
                    if *end != ep.end {
                        out.push(format!(
                            "episode of {tref} ends at {:?} but its EXIST vertex says {end:?}",
                            ep.end
                        ));
                    }
                }
                other => out.push(format!(
                    "episode of {tref} points at a {} vertex instead of an EXIST",
                    other.tag()
                )),
            }
        }
    }
    out
}

/// Checks the structural invariants of an extracted provenance *tree*:
/// the same vertex grammar as the graph (EXIST → one APPEAR → one INSERT
/// or DERIVE, DERIVE children all EXISTs, leaves bare), plus tree-specific
/// rules — parent/child links mutually consistent, the
/// root parentless, every EXIST sharing its tuple and time with its APPEAR,
/// and each DERIVE's body EXIST intervals covering the derivation time.
pub fn tree_well_formedness_violations(tree: &ProvTree) -> Vec<String> {
    let mut out = Vec::new();
    if tree.is_empty() {
        out.push("tree has no nodes".to_string());
        return out;
    }
    if tree.root().parent.is_some() {
        out.push("root node has a parent".to_string());
    }
    for (i, n) in tree.nodes().iter().enumerate() {
        for &c in &n.children {
            if c >= tree.len() {
                out.push(format!("node {i} has out-of-range child {c}"));
            } else if tree.node(c).parent != Some(i) {
                out.push(format!(
                    "node {i} lists child {c}, but that child's parent is {:?}",
                    tree.node(c).parent
                ));
            }
        }
        if n.children.iter().any(|&c| c >= tree.len()) {
            continue;
        }
        let label = format!("{} {}@{} t={}", n.kind.tag(), n.tuple, n.node, n.time);
        match &n.kind {
            VertexKind::Exist { end } => {
                if end.is_some_and(|e| e <= n.time) {
                    out.push(format!("{label}: EXIST interval ends at {end:?}, before it starts"));
                }
                if n.children.len() != 1 {
                    out.push(format!(
                        "{label}: EXIST has {} children, expected 1",
                        n.children.len()
                    ));
                } else {
                    let a = tree.node(n.children[0]);
                    if !matches!(a.kind, VertexKind::Appear) {
                        out.push(format!("{label}: EXIST child is {}, expected APPEAR", a.kind.tag()));
                    } else if a.tuple != n.tuple || a.node != n.node || a.time != n.time {
                        out.push(format!(
                            "{label}: APPEAR child disagrees ({} {}@{} t={})",
                            a.kind.tag(),
                            a.tuple,
                            a.node,
                            a.time
                        ));
                    }
                }
            }
            VertexKind::Appear => {
                if n.children.len() != 1 {
                    out.push(format!(
                        "{label}: APPEAR has {} children, expected 1",
                        n.children.len()
                    ));
                } else {
                    let c = tree.node(n.children[0]);
                    if !matches!(c.kind, VertexKind::Insert | VertexKind::Derive { .. }) {
                        out.push(format!(
                            "{label}: APPEAR child is {}, expected INSERT or DERIVE",
                            c.kind.tag()
                        ));
                    }
                }
            }
            VertexKind::Derive { trigger, .. } => {
                if *trigger >= n.children.len() && !n.children.is_empty() {
                    out.push(format!(
                        "{label}: trigger index {trigger} out of range for {} children",
                        n.children.len()
                    ));
                }
                for &c in &n.children {
                    let b = tree.node(c);
                    match &b.kind {
                        VertexKind::Exist { end } => {
                            if b.time > n.time || end.is_some_and(|e| e <= n.time) {
                                out.push(format!(
                                    "{label}: body EXIST {}@{} [{}, {:?}) does not cover the \
                                     derivation time",
                                    b.tuple, b.node, b.time, end
                                ));
                            }
                        }
                        other => out.push(format!(
                            "{label}: DERIVE child is {}, expected EXIST",
                            other.tag()
                        )),
                    }
                }
            }
            VertexKind::Insert | VertexKind::Delete | VertexKind::Underive { .. } => {
                if !n.children.is_empty() {
                    out.push(format!(
                        "{label}: leaf has {} children, expected none",
                        n.children.len()
                    ));
                }
            }
            VertexKind::Disappear => {
                out.push(format!("{label}: DISAPPEAR never occurs in extracted trees"));
            }
        }
    }
    out
}

/// [`well_formedness_violations`], packaged as a `Result` for callers
/// that only want pass/fail with a joined message.
pub fn check_well_formed(g: &ProvGraph) -> Result<(), String> {
    let violations = well_formedness_violations(g);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}
