//! The NDlog model of an OpenFlow network (Section 3.1 of the paper).
//!
//! State tables:
//!
//! | table       | kind            | meaning                                      |
//! |-------------|-----------------|----------------------------------------------|
//! | `pktIn`     | immutable base  | packet arrives from outside at a border switch |
//! | `hello`     | immutable base  | switch handshake with the controller          |
//! | `link`      | immutable base  | physical port wiring (switch side)            |
//! | `host`      | immutable base  | host attachment (switch side)                 |
//! | `cfgEntry`  | **mutable** base| operator/controller flow configuration        |
//! | `switchUp`  | derived         | controller's liveness view of a switch        |
//! | `flowEntry` | derived         | installed OpenFlow rule on a switch           |
//! | `pktAt`     | derived         | packet present at a switch                    |
//! | `pktOut`    | derived         | forwarding decision                           |
//! | `deliver`   | derived         | packet handed to a host                       |
//!
//! Flow entries match on source and destination prefixes with priorities;
//! OpenFlow's "highest-priority match wins" is non-monotonic and therefore
//! modeled as the stateful builtin [`BestMatch`] rather than as datalog.
//! Equal-priority matches all fire, which is how multicast/mirroring is
//! expressed (scenario SDN3 and the DPI mirror of Figure 1). A `port` of
//! [`DROP_PORT`] sends the packet nowhere — an ACL drop.

use std::sync::{Arc, OnceLock};

use dp_ndlog::{NodeView, Program, StatefulBuiltin, TupleChange};
use dp_types::{
    Error, FieldType, NodeId, Prefix, Result, Schema, SchemaRegistry, Sym, Tuple, TupleRef, Value,
};

/// The action port value meaning "drop the packet" (ACL deny).
pub const DROP_PORT: i64 = -1;

/// The rules of the SDN model, in NDlog concrete syntax.
pub const SDN_RULES: &str = "\
% A switch that completed its handshake is up (controller's view).
up      switchUp(@C, S) :- hello(@S, Seq, C).

% The controller installs configured entries on live switches.
install flowEntry(@Sw, Rid, Prio, SM, DM, Pt) :-
            cfgEntry(@C, Rid, Sw, Prio, SM, DM, Pt), switchUp(@C, Sw).

% Packets from outside enter the data plane.
ingress pktAt(@S, Pid, Src, Dst, Pr, Len) :- pktIn(@S, Pid, Src, Dst, Pr, Len).

% The highest-priority matching entry forwards the packet; ties all fire
% (multicast/mirroring).
fwd     pktOut(@S, Pid, Src, Dst, Pr, Len, Pt) :-
            pktAt(@S, Pid, Src, Dst, Pr, Len),
            flowEntry(@S, Rid, Prio, SM, DM, Pt),
            prefix_contains(SM, Src), prefix_contains(DM, Dst),
            best_match!(S, Src, Dst, Prio).

% Header rewriting (NAT / load-balancer VIPs): a rewrite entry matches the
% destination and replaces it before forwarding. The packet continues with
% the rewritten header.
fwdr    pktOut(@S, Pid, Src, NewDst, Pr, Len, Pt) :-
            pktAt(@S, Pid, Src, Dst, Pr, Len),
            rewriteEntry(@S, Rid, DM, NewDst, Pt),
            prefix_contains(DM, Dst).

% ECMP: a switch with an ECMP group load-balances across N consecutive
% ports by hashing the packet (flow) id. The hash makes the choice
% deterministic given the stimulus, which is what lets replay-based
% debugging handle load balancing (Section 4.9 of the paper).
fwde    pktOut(@S, Pid, Src, Dst, Pr, Len, Pt) :-
            pktAt(@S, Pid, Src, Dst, Pr, Len),
            ecmpGroup(@S, Base, N),
            Pt := Base + hmod(Pid, N).

% The packet moves along the wire to the next switch...
move    pktAt(@N, Pid, Src, Dst, Pr, Len) :-
            pktOut(@S, Pid, Src, Dst, Pr, Len, Pt), link(@S, Pt, N).

% ...or is handed to an attached host.
dlvr    deliver(@H, Pid, Src, Dst, Pr, Len) :-
            pktOut(@S, Pid, Src, Dst, Pr, Len, Pt), host(@S, Pt, H).
";

/// Table declarations for the SDN model.
pub fn sdn_schemas() -> SchemaRegistry {
    use dp_types::TableKind::*;
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new(
        "pktIn",
        ImmutableBase,
        [
            ("pid", FieldType::Int),
            ("src", FieldType::Ip),
            ("dst", FieldType::Ip),
            ("proto", FieldType::Int),
            ("len", FieldType::Int),
        ],
    ));
    reg.declare(Schema::new(
        "hello",
        ImmutableBase,
        [("seq", FieldType::Int), ("ctl", FieldType::Str)],
    ));
    reg.declare(
        Schema::new(
            "link",
            ImmutableBase,
            [("port", FieldType::Int), ("next", FieldType::Str)],
        )
        .with_key([0]),
    );
    reg.declare(
        Schema::new(
            "host",
            ImmutableBase,
            [("port", FieldType::Int), ("hname", FieldType::Str)],
        )
        .with_key([0]),
    );
    reg.declare(
        Schema::new(
            "cfgEntry",
            MutableBase,
            [
                ("rid", FieldType::Int),
                ("sw", FieldType::Str),
                ("prio", FieldType::Int),
                ("srcMatch", FieldType::Prefix),
                ("dstMatch", FieldType::Prefix),
                ("port", FieldType::Int),
            ],
        )
        .with_key([0]),
    );
    reg.declare(Schema::new(
        "ecmpGroup",
        MutableBase,
        [("base", FieldType::Int), ("n", FieldType::Int)],
    ));
    reg.declare(
        Schema::new(
            "rewriteEntry",
            MutableBase,
            [
                ("rid", FieldType::Int),
                ("dstMatch", FieldType::Prefix),
                ("newDst", FieldType::Ip),
                ("port", FieldType::Int),
            ],
        )
        .with_key([0]),
    );
    reg.declare(Schema::new(
        "switchUp",
        Derived,
        [("sw", FieldType::Str)],
    ));
    reg.declare(Schema::new(
        "flowEntry",
        Derived,
        [
            ("rid", FieldType::Int),
            ("prio", FieldType::Int),
            ("srcMatch", FieldType::Prefix),
            ("dstMatch", FieldType::Prefix),
            ("port", FieldType::Int),
        ],
    ));
    reg.declare(Schema::new(
        "pktAt",
        Derived,
        [
            ("pid", FieldType::Int),
            ("src", FieldType::Ip),
            ("dst", FieldType::Ip),
            ("proto", FieldType::Int),
            ("len", FieldType::Int),
        ],
    ));
    reg.declare(Schema::new(
        "pktOut",
        Derived,
        [
            ("pid", FieldType::Int),
            ("src", FieldType::Ip),
            ("dst", FieldType::Ip),
            ("proto", FieldType::Int),
            ("len", FieldType::Int),
            ("port", FieldType::Int),
        ],
    ));
    reg.declare(Schema::new(
        "deliver",
        Derived,
        [
            ("pid", FieldType::Int),
            ("src", FieldType::Ip),
            ("dst", FieldType::Ip),
            ("proto", FieldType::Int),
            ("len", FieldType::Int),
        ],
    ));
    reg
}

/// Builds the complete SDN program. `controller` is the node name the
/// [`BestMatch`] repair hook should direct configuration changes at.
pub fn sdn_program(controller: &str) -> Result<Arc<Program>> {
    Program::builder(sdn_schemas())
        .rules_text(SDN_RULES)?
        .builtin(Arc::new(BestMatch::new(Some(NodeId::new(controller)))))
        .build()
}

/// OpenFlow priority resolution as a stateful builtin:
/// `best_match!(S, Src, Dst, Prio)` holds iff no flow entry on switch `S`
/// with priority strictly greater than `Prio` matches `Src`/`Dst`.
///
/// The repair hook (used by DiffProv when the constraint blocks a required
/// derivation — scenarios SDN2 and the campus forwarding error) narrows
/// each blocking entry's most specific match dimension so it no longer
/// covers the packet; when no narrowing exists it deletes the entry.
/// Because installed flow entries are *derived* from `cfgEntry` tuples, the
/// repair is expressed against the configuration at the controller.
pub struct BestMatch {
    /// The controller node holding `cfgEntry`; `None` makes repairs target
    /// the `flowEntry` table directly (useful for models where entries are
    /// base tuples).
    pub config: Option<NodeId>,
    /// The table the predicate reads, named once: `eval` runs per `fwd`
    /// match, and a `Sym` built there is an allocation and a free each.
    flow_entry: Sym,
}

impl BestMatch {
    /// The predicate, directing repairs at `config`'s `cfgEntry` table
    /// (see [`BestMatch::config`]).
    pub fn new(config: Option<NodeId>) -> Self {
        BestMatch {
            config,
            flow_entry: Sym::new("flowEntry"),
        }
    }

    fn blockers<'a>(
        &self,
        view: &NodeView<'a>,
        src: u32,
        dst: u32,
        prio: i64,
    ) -> Result<Vec<&'a Tuple>> {
        let mut out = Vec::new();
        // The engine keeps prefix tries on the srcMatch and dstMatch
        // columns for the `fwd` rule; priority resolution rides whichever
        // of them is more selective for this packet. The candidates are a
        // superset of the entries that match it, in table order, so the
        // filter below is unchanged and the result is identical to a full
        // scan.
        for t in view.prefix_candidates(&self.flow_entry, &[(2, src), (3, dst)]) {
            let eprio = t.args[1].as_int()?;
            let sm = t.args[2].as_prefix()?;
            let dm = t.args[3].as_prefix()?;
            if eprio > prio && sm.contains(src) && dm.contains(dst) {
                out.push(t);
            }
        }
        Ok(out)
    }
}

impl StatefulBuiltin for BestMatch {
    fn name(&self) -> Sym {
        Sym::new("best_match")
    }

    fn eval(&self, view: &NodeView<'_>, args: &[Value]) -> Result<bool> {
        let [_, src, dst, prio] = args else {
            return Err(Error::Engine("best_match expects 4 arguments".into()));
        };
        Ok(self
            .blockers(view, src.as_ip()?, dst.as_ip()?, prio.as_int()?)?
            .is_empty())
    }

    /// Only a flow entry that matches the packet — its `srcMatch` contains
    /// `Src` and its `dstMatch` contains `Dst` — can block or unblock a
    /// match, whatever its priority: a lower one can still be the entry a
    /// change leaves on top. Arguments that are not a packet's header
    /// answer `true`.
    fn may_read(&self, args: &[Value], tuple: &Tuple) -> bool {
        if !self.reads_table(&tuple.table) {
            return false;
        }
        let (Some(src), Some(dst)) = (args.get(1), args.get(2)) else {
            return true;
        };
        let contains = |col: usize, ip: &Value| match (tuple.args.get(col), ip) {
            (Some(Value::Prefix(p)), Value::Ip(ip)) => p.contains(*ip),
            _ => true,
        };
        contains(2, src) && contains(3, dst)
    }

    fn reads_table(&self, table: &Sym) -> bool {
        *table == self.flow_entry
    }

    fn repair(&self, view: &NodeView<'_>, args: &[Value]) -> Result<Vec<TupleChange>> {
        let [sw, src, dst, prio] = args else {
            return Err(Error::Engine("best_match expects 4 arguments".into()));
        };
        let src = src.as_ip()?;
        let dst = dst.as_ip()?;
        let mut changes = Vec::new();
        for blocker in self.blockers(view, src, dst, prio.as_int()?)? {
            let sm = blocker.args[2].as_prefix()?;
            let dm = blocker.args[3].as_prefix()?;
            // Narrow the more specific dimension first: it is the one the
            // operator used to discriminate traffic.
            let narrowed: Option<(usize, Prefix)> = if sm.len() >= dm.len() {
                sm.narrow_to_exclude(src)
                    .map(|p| (2, p))
                    .or_else(|| dm.narrow_to_exclude(dst).map(|p| (3, p)))
            } else {
                dm.narrow_to_exclude(dst)
                    .map(|p| (3, p))
                    .or_else(|| sm.narrow_to_exclude(src).map(|p| (2, p)))
            };
            let mut fixed = blocker.clone();
            let fixed = match narrowed {
                Some((idx, p)) => {
                    fixed.args[idx] = Value::Prefix(p);
                    Some(fixed)
                }
                None => None, // no narrowing keeps the base address: delete
            };
            match &self.config {
                Some(controller) => {
                    // Translate the flow-entry change into the cfgEntry
                    // that the `install` rule copied it from.
                    let to_cfg = |fe: &Tuple| {
                        Tuple::new(
                            "cfgEntry",
                            vec![
                                fe.args[0].clone(),            // rid
                                sw.clone(),                    // sw
                                fe.args[1].clone(),            // prio
                                fe.args[2].clone(),            // srcMatch
                                fe.args[3].clone(),            // dstMatch
                                fe.args[4].clone(),            // port
                            ],
                        )
                    };
                    changes.push(TupleChange {
                        node: *controller,
                        before: Some(to_cfg(blocker)),
                        after: fixed.as_ref().map(to_cfg),
                    });
                }
                None => {
                    changes.push(TupleChange {
                        node: *view.node,
                        before: Some(blocker.clone()),
                        after: fixed,
                    });
                }
            }
        }
        Ok(changes)
    }
}

/// `name` as a symbol, interned on the first call for `cell` alone: the
/// generators build a `pktIn` or `cfgEntry` tuple per packet and entry,
/// and each interner lookup takes its lock.
fn table_name(cell: &'static OnceLock<Sym>, name: &str) -> Sym {
    *cell.get_or_init(|| Sym::new(name))
}

/// Constructs a `pktIn` tuple.
pub fn pkt_in(pid: i64, src: u32, dst: u32, proto: i64, len: i64) -> Tuple {
    static PKT_IN: OnceLock<Sym> = OnceLock::new();
    Tuple::new(
        table_name(&PKT_IN, "pktIn"),
        vec![
            Value::Int(pid),
            Value::Ip(src),
            Value::Ip(dst),
            Value::Int(proto),
            Value::Int(len),
        ],
    )
}

/// Constructs a `cfgEntry` tuple.
pub fn cfg_entry(
    rid: i64,
    sw: impl Into<Sym>,
    prio: i64,
    sm: Prefix,
    dm: Prefix,
    port: i64,
) -> Tuple {
    static CFG_ENTRY: OnceLock<Sym> = OnceLock::new();
    Tuple::new(
        table_name(&CFG_ENTRY, "cfgEntry"),
        vec![
            Value::Int(rid),
            Value::Str(sw.into()),
            Value::Int(prio),
            Value::Prefix(sm),
            Value::Prefix(dm),
            Value::Int(port),
        ],
    )
}

/// The `deliver` tuple a packet produces at a host.
pub fn deliver(pid: i64, src: u32, dst: u32, proto: i64, len: i64) -> Tuple {
    Tuple::new(
        "deliver",
        vec![
            Value::Int(pid),
            Value::Ip(src),
            Value::Ip(dst),
            Value::Int(proto),
            Value::Int(len),
        ],
    )
}

/// A located `deliver` event, convenient for queries.
pub fn deliver_at(host: &str, pid: i64, src: u32, dst: u32, proto: i64, len: i64) -> TupleRef {
    TupleRef::new(host, deliver(pid, src, dst, proto, len))
}
